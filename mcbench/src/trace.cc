#include "trace.hh"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <utility>

namespace mcbench {

Tracer::Tracer(bool enabled)
    : on(enabled), epoch(std::chrono::steady_clock::now())
{
}

std::uint64_t
Tracer::nowNs() const
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - epoch)
            .count());
}

int
Tracer::begin(const std::string& name)
{
    if (!on)
        return -1;
    Span s;
    s.name = name;
    s.parent = open.empty() ? -1 : open.back();
    s.op = curOp;
    const int idx = static_cast<int>(log.size());
    log.push_back(std::move(s));
    open.push_back(idx);
    log.back().startNs = nowNs();
    return idx;
}

void
Tracer::end(int span)
{
    if (span < 0)
        return;
    log[static_cast<std::size_t>(span)].endNs = nowNs();
    // Spans close innermost-first (ScopedSpan); tolerate a skipped end.
    while (!open.empty()) {
        const int top = open.back();
        open.pop_back();
        if (top == span)
            break;
    }
}

std::vector<std::uint64_t>
selfTimesNs(const std::vector<Span>& spans)
{
    std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> kids(
        spans.size());
    for (const Span& s : spans) {
        if (s.parent < 0)
            continue;
        const Span& p = spans[static_cast<std::size_t>(s.parent)];
        const std::uint64_t lo = std::max(s.startNs, p.startNs);
        const std::uint64_t hi = std::min(s.endNs, p.endNs);
        if (lo < hi)
            kids[static_cast<std::size_t>(s.parent)].emplace_back(lo, hi);
    }
    std::vector<std::uint64_t> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        auto& iv = kids[i];
        std::sort(iv.begin(), iv.end());
        std::uint64_t covered = 0, curLo = 0, curHi = 0;
        bool have = false;
        for (const auto& [lo, hi] : iv) {
            if (have && lo <= curHi) {
                curHi = std::max(curHi, hi);
                continue;
            }
            if (have)
                covered += curHi - curLo;
            curLo = lo;
            curHi = hi;
            have = true;
        }
        if (have)
            covered += curHi - curLo;
        self[i] = spans[i].durationNs() - covered;
    }
    return self;
}

std::map<std::string, std::uint64_t>
layerSelfNs(const std::vector<Span>& spans)
{
    const auto self = selfTimesNs(spans);
    std::map<std::string, std::uint64_t> out;
    for (std::size_t i = 0; i < spans.size(); ++i)
        out[spans[i].layer()] += self[i];
    return out;
}

std::vector<double>
durationsNs(const std::vector<Span>& spans, const std::string& name)
{
    std::vector<double> out;
    for (const Span& s : spans)
        if (s.name == name)
            out.push_back(static_cast<double>(s.durationNs()));
    return out;
}

double
totalNs(const std::vector<Span>& spans, const std::string& name)
{
    double sum = 0.0;
    for (double d : durationsNs(spans, name))
        sum += d;
    return sum;
}

namespace {

std::string
jsonString(const std::string& s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
        } else {
            out += c;
        }
    }
    return out + "\"";
}

} // namespace

bool
writeChromeTrace(const std::string& path, const std::vector<Span>& spans,
                 const std::string& process_name)
{
    std::ofstream out(path);
    if (!out)
        return false;
    out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n"
        << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,"
        << "\"args\":{\"name\":" << jsonString(process_name) << "}}";
    char num[64];
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span& s = spans[i];
        out << ",\n{\"name\":" << jsonString(s.name)
            << ",\"cat\":" << jsonString(s.layer()) << ",\"ph\":\"X\"";
        std::snprintf(num, sizeof num, "%.3f", s.startNs / 1e3);
        out << ",\"ts\":" << num;
        std::snprintf(num, sizeof num, "%.3f", s.durationNs() / 1e3);
        out << ",\"dur\":" << num << ",\"pid\":1,\"tid\":1"
            << ",\"args\":{\"span\":" << i << ",\"parent\":" << s.parent
            << ",\"op\":" << s.op << "}}";
    }
    out << "\n]}\n";
    out.flush();
    return static_cast<bool>(out);
}

} // namespace mcbench
