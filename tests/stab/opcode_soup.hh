/**
 * @file
 * Shared test circuit for the frame-sampler suites: one circuit that
 * touches every opcode the frame pipeline lowers — all unitaries,
 * M/R/MR, both biased errors, the Pauli-1 channel, and both
 * depolarizing channels (DEPOL2 exercises the rejection-retry tape
 * rows) — over two noisy measurement rounds, so it also compiles to
 * two streaming slices.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "stab/circuit.hh"

namespace hetarch {
namespace stab {

inline Circuit
opcodeSoup()
{
    Circuit c(4);
    c.h(0);
    c.s(1);
    c.sdg(2);
    c.x(3);
    c.y(0);
    c.z(1);
    c.xError(0, 0.3);
    c.zError(1, 0.2);
    c.pauliChannel1(2, 0.05, 0.1, 0.15);
    c.depolarize1(3, 0.25);
    c.depolarize2(0, 1, 0.2);
    c.cx(0, 1);
    c.cz(1, 2);
    c.swap(2, 3);
    std::vector<std::size_t> r0;
    for (std::uint32_t q = 0; q < 4; ++q)
        r0.push_back(c.measureReset(q));
    c.depolarize2(2, 3, 0.15);
    c.h(0);
    c.reset(1);
    c.xError(2, 0.4);
    std::vector<std::size_t> r1;
    for (std::uint32_t q = 0; q < 4; ++q)
        r1.push_back(c.measure(q));
    for (std::uint32_t q = 0; q < 4; ++q)
        c.detector({r0[q], r1[q]});
    c.observableInclude(0, {r1[0], r1[2]});
    return c;
}

} // namespace stab
} // namespace hetarch
