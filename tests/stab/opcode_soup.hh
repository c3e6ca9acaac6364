/**
 * @file
 * Shared test circuits for the frame-sampler suites: opcodeSoup
 * touches every opcode the frame pipeline lowers — all unitaries,
 * M/R/MR, both biased errors, the Pauli-1 channel, and both
 * depolarizing channels — over two noisy measurement rounds, so it
 * also compiles to two streaming slices; the probe circuits read a
 * single noise channel's applied Pauli out as detectors.
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

/**
 * Read qubit @p q's Pauli frame out through fresh ancillas: detector
 * x, then detector z.  CX/H draw no randomness, so the gadget leaves
 * the channel's RNG stream untouched.
 *   - cx(q, ax) copies q's X frame onto ax;
 *   - cx(az, q) then h(az) moves q's Z frame into az's X frame;
 * and measuring an ancilla records its X frame.
 */
inline void
appendPauliReadout(Circuit& c, std::uint32_t q, std::uint32_t ax,
                   std::uint32_t az)
{
    c.cx(q, ax);
    c.detector({c.measure(ax)});
    c.cx(az, q);
    c.h(az);
    c.detector({c.measure(az)});
}

/** DEPOL2(p) on qubits 0/1; detectors read (x0, z0, x1, z1). */
inline Circuit
depol2ProbeCircuit(double p)
{
    Circuit c(6);
    c.depolarize2(0, 1, p);
    appendPauliReadout(c, 0, 2, 3);
    appendPauliReadout(c, 1, 4, 5);
    return c;
}

/** DEPOL1(p) on qubit 0; detectors read (x, z). */
inline Circuit
depol1ProbeCircuit(double p)
{
    Circuit c(3);
    c.depolarize1(0, p);
    appendPauliReadout(c, 0, 1, 2);
    return c;
}

/** PAULI_CHANNEL_1(px, py, pz) on qubit 0; detectors read (x, z). */
inline Circuit
pauli1ProbeCircuit(double px, double py, double pz)
{
    Circuit c(3);
    c.pauliChannel1(0, px, py, pz);
    appendPauliReadout(c, 0, 1, 2);
    return c;
}

} // namespace stab
} // namespace hetarch
