/**
 * @file
 * Run metadata stamped into every BENCH_*.json: which compiler built
 * the binary, which git revision it came from, and the WCT_THREADS
 * it ran under. A checked-in baseline or a CI artifact is
 * only interpretable when the numbers carry their provenance — two
 * BENCH files that disagree should first be compared on this block.
 * Also the baseline reading the cold/warm perf gates share: a number
 * out of a baseline, and the like-for-like configuration check.
 */

#ifndef WCT_BENCH_RUN_META_HH
#define WCT_BENCH_RUN_META_HH

#include <cstddef>
#include <string>

namespace wct::bench
{

/**
 * One JSON object member, `"run_meta": {...}`, ready to splice into a
 * BENCH_*.json (no trailing comma or newline). Each inner line is
 * prefixed with `indent`. Contents: toolkit version, git revision the
 * build was configured at (WCT_GIT_REV, "unknown" outside a
 * checkout), compiler id from __VERSION__, the thread count
 * WCT_THREADS resolved to (ThreadPool::configuredThreads(), the value
 * that sizes the global pool; a bench that resizes the pool itself
 * records that size in its own fields), and host CPU count.
 */
std::string runMetadataJson(const std::string &indent);

/** Value of the first `"key": <number>` in a flat JSON text such as
 * a checked-in baseline; NaN when the key is absent. */
double jsonNumber(const std::string &text, const std::string &key);

/**
 * Why a cold/warm ratio taken now cannot be compared with `baseline`
 * (the text of a BENCH JSON), or "" when it can: this run's
 * --intervals and the thread count WCT_THREADS resolved to must equal
 * the baseline's base_intervals and wct_threads, because the cold and
 * warm sides scale differently with the pool. The reason names both
 * configurations, as "this run is --intervals=N at WCT_THREADS=T, the
 * baseline was recorded at --intervals=N at WCT_THREADS=T", with
 * "(unrecorded)" for a field the baseline lacks.
 */
std::string configMismatch(const std::string &baseline,
                           std::size_t intervals);

} // namespace wct::bench

#endif // WCT_BENCH_RUN_META_HH
