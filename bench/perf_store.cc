/**
 * @file
 * Perf smoke of the fleet-shared artifact store.
 *
 * Starts an in-process `wct store serve` daemon (StoreService behind
 * a SocketServer speaking WCTSTOR on a Unix socket), then runs a plan
 * through it twice from the point of view of a cluster:
 *
 *   cold cluster  — empty daemon, fresh worker cache: every stage
 *                   computes and publishes through the daemon;
 *   warm cluster  — warm daemon, a *fresh* worker cache per rep, so
 *                   every hit is served over the wire, not from the
 *                   local read-through cache.
 *
 * Writes BENCH_store.json:
 *
 *   perf_store [--plan=NAME] [--intervals=N] [--reps=R]
 *              [--dir=DIR] [--out=FILE] [--baseline=FILE]
 *
 * Three correctness gates always apply: the warm run must be 100%
 * store hits, cold and warm plan outputs must be byte-identical, and
 * the warm-over-cold speedup must clear the 5x floor (a warm worker
 * fetches and decodes artifacts instead of simulating; anything near
 * 1x means the daemon is not actually serving). With --baseline, the
 * speedup must additionally stay within 75% of the checked-in
 * baseline ratio. That ratio is comparable only at the baseline's
 * thread count and interval count, because the cold side runs in
 * parallel on the pool and the warm side does not; a run whose
 * --intervals or WCT_THREADS differs from the baseline's
 * base_intervals and wct_threads is refused (exit 1) before anything
 * is measured. Wired into ctest under the perf-smoke label, at the
 * baseline's configuration.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <string_view>

#include <unistd.h>

#include "bench/run_meta.hh"
#include "data/remote_store.hh"
#include "data/store_wire.hh"
#include "pipeline/plans.hh"
#include "serve/socket.hh"
#include "serve/store_service.hh"
#include "util/thread_pool.hh"

namespace
{

using namespace wct;
namespace fs = std::filesystem;

struct TimedRun
{
    double ms = 0.0;
    std::string output;    ///< rendered plan results
    bool allCached = false;
    std::size_t stages = 0;
    std::size_t hits = 0;
};

/** Run the plan as one worker with its own read-through cache. */
TimedRun
timePlan(const std::string &plan,
         const pipeline::PlanProtocol &protocol,
         const std::string &url, const std::string &cache_dir)
{
    RemoteStoreConfig remote;
    remote.url = url;
    remote.cacheDir = cache_dir;

    TimedRun result;
    std::ostringstream out;
    pipeline::Pipeline pipe{makeRemoteStore(remote)};
    const auto start = std::chrono::steady_clock::now();
    pipeline::runPlan(pipe, plan, protocol, out);
    const auto stop = std::chrono::steady_clock::now();
    result.ms =
        std::chrono::duration<double, std::milli>(stop - start)
            .count();
    result.output = out.str();
    result.allCached = pipe.allCached();
    result.stages = pipe.runs().size();
    result.hits = pipe.cachedCount();
    return result;
}

/** Value of the first `"key": <number>` in a (flat) JSON text. */
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

int
main(int argc, char **argv)
{
    std::string plan = "cpu2006";
    std::size_t intervals = 40;
    int reps = 2;
    std::string work_dir;
    std::string out_path = "BENCH_store.json";
    std::string baseline_path;
    for (int i = 1; i < argc; ++i) {
        const std::string_view arg = argv[i];
        if (arg.rfind("--plan=", 0) == 0)
            plan = std::string(arg.substr(7));
        else if (arg.rfind("--intervals=", 0) == 0)
            intervals = static_cast<std::size_t>(
                std::strtoul(arg.data() + 12, nullptr, 10));
        else if (arg.rfind("--reps=", 0) == 0)
            reps = std::max(
                1, static_cast<int>(
                       std::strtol(arg.data() + 7, nullptr, 10)));
        else if (arg.rfind("--dir=", 0) == 0)
            work_dir = std::string(arg.substr(6));
        else if (arg.rfind("--out=", 0) == 0)
            out_path = std::string(arg.substr(6));
        else if (arg.rfind("--baseline=", 0) == 0)
            baseline_path = std::string(arg.substr(11));
        else {
            std::cerr << "perf_store: unknown option " << arg
                      << "\n";
            return 1;
        }
    }
    if (!pipeline::isPlanName(plan)) {
        std::cerr << "perf_store: unknown plan " << plan << "\n";
        return 1;
    }

    // Read the baseline first: a comparison it cannot support is
    // refused before any work is done.
    double base_speedup = 0.0;
    if (!baseline_path.empty()) {
        std::ifstream in(baseline_path);
        if (!in) {
            std::cerr << "perf_store: cannot read baseline "
                      << baseline_path << "\n";
            return 1;
        }
        std::stringstream buf;
        buf << in.rdbuf();
        const std::string text = buf.str();
        base_speedup = jsonNumber(text, "speedup");
        if (std::isnan(base_speedup) || base_speedup <= 0.0) {
            std::cerr << "perf_store: baseline has no usable "
                         "speedup\n";
            return 1;
        }
        // Like for like only (see the file comment).
        const double base_intervals =
            jsonNumber(text, "base_intervals");
        const double base_threads = jsonNumber(text, "wct_threads");
        const auto run_intervals = static_cast<double>(intervals);
        const auto run_threads =
            static_cast<double>(ThreadPool::configuredThreads());
        if (base_intervals != run_intervals ||
            base_threads != run_threads) {
            std::cerr << "perf_store: cannot compare with "
                      << baseline_path << ": this run is "
                      << describeConfig(run_intervals, run_threads)
                      << ", the baseline was recorded at "
                      << describeConfig(base_intervals, base_threads)
                      << "; the cold side runs in parallel and the "
                         "warm side does not, so the speedup is "
                         "comparable only at the baseline's "
                         "configuration\n";
            return 1;
        }
    }

    // Reduced-scale protocol, same rationale as perf_pipeline: the
    // real stage graph end to end, inside ctest budgets.
    pipeline::PlanProtocol protocol;
    protocol.collection.intervalInstructions = 2048;
    protocol.collection.baseIntervals = intervals;
    protocol.collection.warmupInstructions = 100'000;

    if (work_dir.empty())
        work_dir =
            (fs::temp_directory_path() /
             ("wct_perf_store_" + std::to_string(::getpid())))
                .string();
    fs::remove_all(work_dir);
    fs::create_directories(fs::path(work_dir) / "daemon");

    // In-process daemon: same StoreService + SocketServer stack as
    // `wct store serve`, minus the process boundary.
    serve::SocketConfig socket_config;
    socket_config.unixPath =
        (fs::path(work_dir) / "store.sock").string();
    socket_config.frameMagic = std::string(kStoreWireMagic, 8);
    socket_config.frameVersion = kStoreWireFormatVersion;
    socket_config.maxFramePayload = kMaxStoreFramePayload;
    serve::StoreService service(
        ArtifactStore((fs::path(work_dir) / "daemon").string()));
    serve::SocketServer transport(service, socket_config);
    std::string err;
    if (!transport.start(&err)) {
        std::cerr << "perf_store: daemon start failed: " << err
                  << "\n";
        return 1;
    }
    const std::string url = "unix:" + socket_config.unixPath;

    // Cold cluster: empty daemon, fresh worker.
    const TimedRun cold =
        timePlan(plan, protocol, url,
                 (fs::path(work_dir) / "cold-cache").string());

    // Warm cluster: each rep is a brand-new worker joining a warm
    // fleet — a fresh cache directory forces every hit over the wire.
    TimedRun warm;
    warm.ms = std::numeric_limits<double>::infinity();
    bool warm_all_cached = true;
    bool identical = true;
    for (int rep = 0; rep < reps; ++rep) {
        const std::string cache =
            (fs::path(work_dir) /
             ("warm-cache-" + std::to_string(rep)))
                .string();
        const TimedRun run = timePlan(plan, protocol, url, cache);
        warm_all_cached = warm_all_cached && run.allCached;
        identical = identical && run.output == cold.output;
        if (run.ms < warm.ms)
            warm = run;
    }
    transport.stop();
    fs::remove_all(work_dir);

    const double speedup = cold.ms / warm.ms;
    std::ostringstream json;
    json << "{\n"
         << "  \"benchmark\": \"perf_store\",\n"
         << bench::runMetadataJson("  ") << ",\n"
         << "  \"plan\": \"" << plan << "\",\n"
         << "  \"base_intervals\": " << intervals << ",\n"
         << "  \"stages\": " << cold.stages << ",\n"
         << "  \"reps\": " << reps << ",\n"
         << "  \"cold_ms\": " << cold.ms << ",\n"
         << "  \"warm_ms\": " << warm.ms << ",\n"
         << "  \"speedup\": " << speedup << ",\n"
         << "  \"warm_hits\": " << warm.hits << ",\n"
         << "  \"warm_all_cached\": "
         << (warm_all_cached ? "true" : "false") << ",\n"
         << "  \"byte_identical\": "
         << (identical ? "true" : "false") << "\n"
         << "}\n";
    std::ofstream out(out_path);
    out << json.str();
    out.close();
    std::cout << json.str();

    if (!warm_all_cached) {
        std::cerr << "perf_store: FAIL: a warm worker missed the "
                     "store (" << warm.hits << "/" << warm.stages
                  << " hits)\n";
        return 1;
    }
    if (!identical) {
        std::cerr << "perf_store: FAIL: warm plan output differs "
                     "from the cold run\n";
        return 1;
    }
    if (speedup < 5.0) {
        std::cerr << "perf_store: FAIL: warm cluster only " << speedup
                  << "x faster than cold; the shared store is not "
                     "paying for itself\n";
        return 1;
    }
    if (!baseline_path.empty()) {
        // Gate on the ratio, not absolute times: both numbers come
        // from this host, and the configuration check above made the
        // run's thread count and interval count the baseline's.
        const double floor = 0.75 * base_speedup;
        if (speedup < floor) {
            std::cerr << "perf_store: FAIL: warm speedup " << speedup
                      << "x fell below 75% of the baseline "
                      << base_speedup << "x (floor " << floor
                      << "x)\n";
            return 1;
        }
        std::cout << "perf_store: speedup gate OK (" << speedup
                  << "x >= " << floor << "x floor)\n";
    }
    return 0;
}
