#include "trace/trace_io.h"

#include <fstream>
#include <sstream>

#include "util/csv.h"
#include "util/logging.h"
#include "util/script.h"

namespace nps {
namespace trace {

void
writeTraces(std::ostream &out, const std::vector<UtilizationTrace> &traces)
{
    util::CsvWriter w(out);
    w.row("name", "class", "tick", "util");
    for (const auto &t : traces) {
        for (size_t tick = 0; tick < t.length(); ++tick) {
            w.row(t.name(), workloadClassName(t.workloadClass()),
                  static_cast<unsigned long>(tick), t.samples()[tick]);
        }
    }
}

void
writeTracesFile(const std::string &path,
                const std::vector<UtilizationTrace> &traces)
{
    std::ofstream out(path, std::ios::binary);
    if (!out)
        util::fatal("writeTracesFile: cannot open %s", path.c_str());
    writeTraces(out, traces);
    if (!out)
        util::fatal("writeTracesFile: write to %s failed", path.c_str());
}

WorkloadClass
workloadClassFromName(const std::string &name)
{
    for (size_t i = 0; i < kNumWorkloadClasses; ++i) {
        auto wc = static_cast<WorkloadClass>(i);
        if (name == workloadClassName(wc))
            return wc;
    }
    util::fatal("workloadClassFromName: unknown class '%s'", name.c_str());
}

std::vector<UtilizationTrace>
parseTraces(const std::string &text)
{
    util::CsvDocument doc = util::parseCsv(text);
    if (doc.rows.empty())
        util::fatal("parseTraces: empty document");

    const auto &header = doc.rows[0];
    if (header.size() != 4 || header[0] != "name" || header[1] != "class" ||
        header[2] != "tick" || header[3] != "util") {
        util::fatal("parseTraces: unexpected header");
    }

    std::vector<UtilizationTrace> out;
    std::string cur_name;
    WorkloadClass cur_class = WorkloadClass::WebServer;
    std::vector<double> cur_samples;

    auto flush = [&]() {
        if (!cur_samples.empty()) {
            out.emplace_back(cur_name, cur_class, std::move(cur_samples));
            cur_samples = {};
        }
    };

    for (size_t r = 1; r < doc.rows.size(); ++r) {
        const auto &row = doc.rows[r];
        if (row.size() == 1 && row[0].empty())
            continue;  // trailing blank line
        if (row.size() != 4)
            util::fatal("parseTraces: row %zu has %zu fields", r,
                        row.size());
        if (row[0] != cur_name) {
            flush();
            cur_name = row[0];
            cur_class = workloadClassFromName(row[1]);
        }
        size_t expect_tick = cur_samples.size();
        uint64_t tick = 0;
        if (!util::parseUnsigned(row[2], tick))
            util::fatal("parseTraces: row %zu: bad tick '%s' (want a "
                        "non-negative integer)", r, row[2].c_str());
        if (tick != expect_tick)
            util::fatal("parseTraces: trace %s: tick %llu out of order "
                        "(expected %zu)", cur_name.c_str(),
                        static_cast<unsigned long long>(tick), expect_tick);
        double sample = 0.0;
        if (!util::parseNumber(row[3], sample))
            util::fatal("parseTraces: row %zu: bad utilization '%s' (want "
                        "a finite number)", r, row[3].c_str());
        cur_samples.push_back(sample);
    }
    flush();
    return out;
}

std::vector<UtilizationTrace>
readTracesFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        util::fatal("readTracesFile: cannot open %s", path.c_str());
    std::ostringstream ss;
    ss << in.rdbuf();
    return parseTraces(ss.str());
}

} // namespace trace
} // namespace nps
