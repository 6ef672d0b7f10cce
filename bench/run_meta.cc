#include "bench/run_meta.hh"

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

} // namespace wct::bench
