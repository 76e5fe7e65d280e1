#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace perfbench {

int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
Span::attr(const std::string &key, double fallback) const
{
    for (const auto &[k, v] : attrs)
        if (k == key)
            return v;
    return fallback;
}

void
Tracer::record(Span span)
{
    if (!enabled_)
        return;
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(std::move(span));
}

std::size_t
Tracer::size() const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    return spans_.size();
}

void
Tracer::write(const std::string &path,
              const std::vector<std::string> &header) const
{
    std::ofstream out(path);
    if (!out)
        throw std::runtime_error("trace: cannot write " + path);
    for (const auto &line : header)
        out << "# " << line << '\n';
    const std::lock_guard<std::mutex> lock(mutex_);
    char value[64];
    for (const auto &s : spans_) {
        out << s.id << '\t' << s.parent << '\t' << s.job << '\t'
            << s.name << '\t' << s.start_ns << '\t' << s.end_ns
            << '\t';
        for (std::size_t i = 0; i < s.attrs.size(); ++i) {
            std::snprintf(value, sizeof value, "%.17g",
                          s.attrs[i].second);
            out << (i ? ";" : "") << s.attrs[i].first << '=' << value;
        }
        out << '\n';
    }
    out.flush();
    if (!out)
        throw std::runtime_error("trace: write failed for " + path);
}

ScopedSpan::ScopedSpan(Tracer &tracer, std::string name,
                       uint64_t parent, uint64_t job)
    : tracer_(tracer)
{
    span_.id = tracer.newId();
    span_.parent = parent;
    span_.job = job;
    span_.name = std::move(name);
    span_.start_ns = nowNs();
}

ScopedSpan::~ScopedSpan()
{
    span_.end_ns = nowNs();
    tracer_.record(std::move(span_));
}

void
ScopedSpan::set(std::string key, double value)
{
    span_.attrs.emplace_back(std::move(key), value);
}

std::vector<Span>
readTrace(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("trace: cannot read " + path);
    std::vector<Span> spans;
    std::string line;
    int line_no = 0;
    while (std::getline(in, line)) {
        ++line_no;
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        Span s;
        std::string attrs;
        if (!(fields >> s.id >> s.parent >> s.job >> s.name >>
              s.start_ns >> s.end_ns))
            throw std::runtime_error("trace: bad line " +
                                     std::to_string(line_no));
        fields >> attrs;
        std::istringstream items(attrs);
        std::string item;
        while (std::getline(items, item, ';')) {
            const auto eq = item.find('=');
            if (eq == std::string::npos)
                throw std::runtime_error("trace: bad attribute on line " +
                                         std::to_string(line_no));
            s.attrs.emplace_back(item.substr(0, eq),
                                 std::stod(item.substr(eq + 1)));
        }
        spans.push_back(std::move(s));
    }
    return spans;
}

std::unordered_map<uint64_t, double>
selfSeconds(const std::vector<Span> &spans)
{
    std::unordered_map<uint64_t, std::vector<std::pair<int64_t, int64_t>>>
        children;
    for (const auto &s : spans)
        if (s.parent != 0)
            children[s.parent].emplace_back(s.start_ns, s.end_ns);

    std::unordered_map<uint64_t, double> self;
    for (const auto &s : spans) {
        int64_t covered = 0;
        auto it = children.find(s.id);
        if (it != children.end()) {
            auto &iv = it->second;
            std::sort(iv.begin(), iv.end());
            int64_t run_start = 0, run_end = 0;
            bool open = false;
            for (auto [a, b] : iv) {
                a = std::max(a, s.start_ns);
                b = std::min(b, s.end_ns);
                if (b <= a)
                    continue;
                if (open && a <= run_end) {
                    run_end = std::max(run_end, b);
                    continue;
                }
                if (open)
                    covered += run_end - run_start;
                run_start = a;
                run_end = b;
                open = true;
            }
            if (open)
                covered += run_end - run_start;
        }
        self[s.id] = (s.end_ns - s.start_ns - covered) * 1e-9;
    }
    return self;
}

} // namespace perfbench
