#include "bench/run_meta.hh"

#include <cmath>
#include <cstdlib>
#include <sstream>
#include <thread>

#include "util/thread_pool.hh"
#include "util/version.hh"

#ifndef WCT_GIT_REV
#define WCT_GIT_REV "unknown"
#endif

namespace wct::bench
{

namespace
{

/** Minimal JSON string escaping; compiler banners can carry quotes. */
std::string
jsonEscape(const std::string &text)
{
    std::string out;
    out.reserve(text.size());
    for (const char c : text) {
        switch (c) {
        case '"':
            out += "\\\"";
            break;
        case '\\':
            out += "\\\\";
            break;
        case '\n':
            out += "\\n";
            break;
        case '\t':
            out += "\\t";
            break;
        default:
            if (static_cast<unsigned char>(c) >= 0x20)
                out += c;
        }
    }
    return out;
}

/** Compiler id: family prefix plus the predefined version banner. */
std::string
compilerId()
{
#if defined(__clang__)
    return std::string("clang ") + __VERSION__;
#elif defined(__GNUC__)
    return std::string("gcc ") + __VERSION__;
#else
    return std::string("unknown ") + __VERSION__;
#endif
}

/** A configuration as `--intervals=N at WCT_THREADS=T`. */
std::string
describeConfig(double intervals, double threads)
{
    std::ostringstream text;
    const auto field = [&text](double value) {
        if (std::isnan(value))
            text << "(unrecorded)";
        else
            text << value;
    };
    text << "--intervals=";
    field(intervals);
    text << " at WCT_THREADS=";
    field(threads);
    return text.str();
}

} // namespace

std::string
runMetadataJson(const std::string &indent)
{
    // The value WCT_THREADS resolved to, which is what sizes the
    // global pool (WCT_THREADS=1 -> zero workers, inline execution;
    // WCT_THREADS=4 -> four workers).
    const std::size_t wct_threads = ThreadPool::configuredThreads();

    std::ostringstream json;
    json << indent << "\"run_meta\": {\n"
         << indent << "  \"wct_version\": \""
         << jsonEscape(kWctVersion) << "\",\n"
         << indent << "  \"git_rev\": \"" << jsonEscape(WCT_GIT_REV)
         << "\",\n"
         << indent << "  \"compiler\": \""
         << jsonEscape(compilerId()) << "\",\n"
         << indent << "  \"wct_threads\": " << wct_threads << ",\n"
         << indent << "  \"host_cpus\": "
         << std::thread::hardware_concurrency() << "\n"
         << indent << "}";
    return json.str();
}

double
jsonNumber(const std::string &text, const std::string &key)
{
    const std::string quoted = "\"" + key + "\"";
    const std::size_t pos = text.find(quoted);
    if (pos == std::string::npos)
        return std::nan("");
    const std::size_t colon = text.find(':', pos + quoted.size());
    if (colon == std::string::npos)
        return std::nan("");
    return std::strtod(text.c_str() + colon + 1, nullptr);
}

std::string
configMismatch(const std::string &baseline, std::size_t intervals)
{
    const double base_intervals = jsonNumber(baseline, "base_intervals");
    const double base_threads = jsonNumber(baseline, "wct_threads");
    const auto run_intervals = static_cast<double>(intervals);
    const auto run_threads =
        static_cast<double>(ThreadPool::configuredThreads());
    if (base_intervals == run_intervals && base_threads == run_threads)
        return "";
    return "this run is " + describeConfig(run_intervals, run_threads) +
           ", the baseline was recorded at " +
           describeConfig(base_intervals, base_threads) +
           "; the cold and warm sides scale differently with the "
           "pool, so the speedup is comparable only at the "
           "baseline's configuration";
}

} // namespace wct::bench
