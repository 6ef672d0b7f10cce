/**
 * @file
 * Tests of the remote artifact store (data/remote_store) against a
 * live `wct store serve` daemon: URL parsing, fleet sharing through
 * one daemon, read-through caching, content re-hash rejection of a
 * tampered payload, LRU eviction under --store-cache-bytes with
 * concurrent readers, daemon-down degradation, pooled connections
 * under a connection cap and a restart, cold-cluster vs
 * warm-cluster byte-identity at any WCT_THREADS, and shard-granular
 * invalidation of a single-benchmark config change.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "data/binary_io.hh"
#include "data/remote_store.hh"
#include "data/store_wire.hh"
#include "pipeline/stages.hh"
#include "serve/socket.hh"
#include "serve/store_service.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"

namespace wct
{
namespace
{

namespace fs = std::filesystem;

/** Fresh scratch directory, removed on scope exit. */
struct TempDir
{
    fs::path path;

    explicit TempDir(const std::string &tag)
        : path(fs::temp_directory_path() /
               ("wct_remote_test_" + tag + "_" +
                std::to_string(::getpid())))
    {
        fs::remove_all(path);
        fs::create_directories(path);
    }

    ~TempDir() { fs::remove_all(path); }

    std::string file(const std::string &name) const
    {
        return (path / name).string();
    }
};

/**
 * Forwards every request to a StoreService and records the most it
 * served at once. `delayUs` holds each request so that round trips
 * on separate connections overlap, which makes the count show how
 * many connections a worker keeps busy.
 */
struct CountingHandler final : serve::FrameHandler
{
    explicit CountingHandler(serve::StoreService &service)
        : service(service)
    {
    }

    std::string
    handlePayload(std::string_view payload) override
    {
        const int now = inFlight.fetch_add(1) + 1;
        int seen = maxInFlight.load();
        while (now > seen &&
               !maxInFlight.compare_exchange_weak(seen, now)) {
        }
        if (const int us = delayUs.load(); us > 0)
            std::this_thread::sleep_for(std::chrono::microseconds(us));
        std::string response = service.handlePayload(payload);
        inFlight.fetch_sub(1);
        return response;
    }

    std::string
    malformedResponse(const std::string &reason) override
    {
        return service.malformedResponse(reason);
    }

    bool
    shuttingDown() const override
    {
        return service.shuttingDown();
    }

    serve::StoreService &service;
    std::atomic<int> delayUs{0};
    std::atomic<int> inFlight{0};
    std::atomic<int> maxInFlight{0};
};

/** One live store daemon on a Unix socket for a test's duration. */
struct LiveDaemon
{
    serve::StoreService service;
    CountingHandler handler{service};
    serve::SocketServer transport;
    std::string url;

    explicit LiveDaemon(const std::string &dir,
                        const std::string &sock,
                        serve::StoreServiceConfig config = {},
                        std::size_t max_connections =
                            serve::SocketConfig{}.maxConnections)
        : service(ArtifactStore(dir), config),
          transport(handler, socketConfig(sock, max_connections)),
          url("unix:" + sock)
    {
        std::string err;
        if (!transport.start(&err))
            ADD_FAILURE() << err;
    }

    ~LiveDaemon() { transport.stop(); }

    static serve::SocketConfig socketConfig(const std::string &sock,
                                            std::size_t max_connections)
    {
        serve::SocketConfig config;
        config.unixPath = sock;
        config.maxConnections = max_connections;
        config.frameMagic = std::string(kStoreWireMagic, 8);
        config.frameVersion = kStoreWireFormatVersion;
        config.maxFramePayload = kMaxStoreFramePayload;
        return config;
    }
};

/** Remote handle with its own read-through cache directory. */
ArtifactStore
workerStore(const LiveDaemon &daemon, const std::string &cache_dir,
            std::uint64_t cache_bytes = 0)
{
    RemoteStoreConfig config;
    config.url = daemon.url;
    config.cacheDir = cache_dir;
    config.cacheBytes = cache_bytes;
    return makeRemoteStore(config);
}

/** Total .wctart bytes under a cache directory. */
std::uintmax_t
cacheBytesUsed(const fs::path &dir)
{
    std::uintmax_t total = 0;
    for (const auto &entry : fs::directory_iterator(dir))
        if (entry.path().extension() == ".wctart")
            total += fs::file_size(entry.path());
    return total;
}

SuiteProfile
miniSuite()
{
    SuiteProfile suite;
    suite.name = "mini";
    for (int i = 0; i < 3; ++i) {
        BenchmarkProfile b;
        b.name = "mini." + std::to_string(i);
        b.instructionWeight = 0.5 + 0.5 * i;
        PhaseProfile p;
        p.loadFrac = 0.2 + 0.04 * i;
        p.dataFootprint = 1u << (18 + i);
        b.phases.push_back(p);
        suite.benchmarks.push_back(b);
    }
    return suite;
}

CollectionConfig
miniConfig()
{
    CollectionConfig config;
    config.intervalInstructions = 2048;
    config.baseIntervals = 40;
    config.warmupInstructions = 20'000;
    return config;
}

TEST(StoreUrlTest, ParsesUnixAndTcpAndRejectsJunk)
{
    std::string err;
    const auto unix_ep = parseStoreUrl("unix:/tmp/wct.sock", &err);
    ASSERT_TRUE(unix_ep.has_value()) << err;
    EXPECT_EQ(unix_ep->unixPath, "/tmp/wct.sock");
    EXPECT_EQ(unix_ep->tcpPort, 0);

    const auto tcp_ep = parseStoreUrl("tcp:5117", &err);
    ASSERT_TRUE(tcp_ep.has_value()) << err;
    EXPECT_TRUE(tcp_ep->unixPath.empty());
    EXPECT_EQ(tcp_ep->tcpPort, 5117);

    for (const char *bad :
         {"", "unix:", "tcp:", "tcp:0", "tcp:65536", "tcp:12ab",
          "http://host", "tcp:-1", "/just/a/path"})
        EXPECT_FALSE(parseStoreUrl(bad, &err).has_value()) << bad;
}

TEST(RemoteStoreTest, TwoWorkersShareOneDaemon)
{
    const TempDir dir("share");
    fs::create_directories(dir.path / "daemon");
    fs::create_directories(dir.path / "a");
    fs::create_directories(dir.path / "b");
    LiveDaemon daemon(dir.file("daemon"), dir.file("store.sock"));

    const ArtifactId id{"collect-shard", 0xabcdef12u};
    const std::string payload = "shard bytes from worker A";

    // Worker A publishes; the daemon's directory holds the artifact.
    const ArtifactStore a = workerStore(daemon, dir.file("a"));
    ASSERT_TRUE(a.store(id, payload));
    EXPECT_TRUE(
        daemon.service.store().contains(id)); // uploaded, not local

    // Worker B — empty cache — reads it through the daemon.
    const ArtifactStore b = workerStore(daemon, dir.file("b"));
    const auto fetched = b.load(id);
    ASSERT_TRUE(fetched.has_value());
    EXPECT_EQ(*fetched, payload);

    // The fetch landed in B's read-through cache: a second load is
    // served locally even with the daemon gone.
    EXPECT_TRUE(fs::exists(fs::path(b.path(id))));
    const bool quiet = setLogQuiet(true);
    daemon.service.beginShutdown();
    const auto cached = b.load(id);
    setLogQuiet(quiet);
    ASSERT_TRUE(cached.has_value());
    EXPECT_EQ(*cached, payload);
}

TEST(RemoteStoreTest, MissIsNotFoundNotAnError)
{
    const TempDir dir("miss");
    fs::create_directories(dir.path / "daemon");
    fs::create_directories(dir.path / "cache");
    const LiveDaemon daemon(dir.file("daemon"), dir.file("store.sock"));
    const ArtifactStore store = workerStore(daemon, dir.file("cache"));
    EXPECT_FALSE(store.load({"train", 0x404}).has_value());
    EXPECT_FALSE(store.contains({"train", 0x404}));
}

TEST(RemoteStoreTest, TamperedContentPayloadIsRejectedOnFetch)
{
    // A lying daemon serves bytes whose FNV-1a hash does not match
    // the content key of an "mtree" artifact: the fetch must warn and
    // miss (the pipeline recomputes), never return wrong bytes.
    const TempDir dir("tamper");
    fs::create_directories(dir.path / "daemon");
    fs::create_directories(dir.path / "cache");
    const LiveDaemon daemon(dir.file("daemon"), dir.file("store.sock"));

    const std::string genuine = "M5 tree text";
    const ArtifactId id{"mtree", fnv1a64(genuine)};
    // Plant a *different* payload under the genuine content key,
    // directly into the daemon's backing store.
    ASSERT_TRUE(
        daemon.service.store().store(id, "tampered tree text"));

    const ArtifactStore store = workerStore(daemon, dir.file("cache"));
    const bool quiet = setLogQuiet(true);
    const auto fetched = store.load(id);
    setLogQuiet(quiet);
    EXPECT_FALSE(fetched.has_value());
    // The poisoned payload must not have been cached locally.
    EXPECT_FALSE(fs::exists(fs::path(store.path(id))));

    // A non-content kind round-trips untouched: stage-keyed payloads
    // hash inputs, not outputs, so no re-hash applies.
    const ArtifactId stage_id{"collect-shard", 7};
    ASSERT_TRUE(
        daemon.service.store().store(stage_id, "stage payload"));
    EXPECT_TRUE(store.load(stage_id).has_value());

    // And an honest content artifact passes verification.
    const ArtifactId honest{"mtree", fnv1a64(genuine)};
    ASSERT_TRUE(daemon.service.store().remove(honest));
    ASSERT_TRUE(daemon.service.store().store(honest, genuine));
    const auto ok = store.load(honest);
    ASSERT_TRUE(ok.has_value());
    EXPECT_EQ(*ok, genuine);
}

TEST(RemoteStoreTest, LruCacheStaysUnderBoundWithConcurrentReaders)
{
    const TempDir dir("lru");
    fs::create_directories(dir.path / "daemon");
    fs::create_directories(dir.path / "cache");
    const LiveDaemon daemon(dir.file("daemon"), dir.file("store.sock"));

    // Each artifact is ~4 KiB of payload plus envelope overhead; the
    // bound holds roughly four of them.
    constexpr std::uint64_t kBound = 20'000;
    const ArtifactStore store =
        workerStore(daemon, dir.file("cache"), kBound);

    const std::string payload(4096, 'p');
    constexpr int kArtifacts = 16;
    for (int i = 0; i < kArtifacts; ++i)
        ASSERT_TRUE(store.store(
            {"collect-shard", static_cast<std::uint64_t>(i)},
            payload));
    EXPECT_LE(cacheBytesUsed(dir.path / "cache"), kBound);

    // Every artifact survived on the daemon even though the local
    // cache evicted most of them.
    EXPECT_EQ(daemon.service.store().list().size(),
              static_cast<std::size_t>(kArtifacts));

    // Concurrent readers refetch evicted artifacts (each refetch
    // re-caches and may evict others); the bound holds throughout
    // and every read returns the right bytes.
    std::vector<std::thread> readers;
    for (int t = 0; t < 4; ++t)
        readers.emplace_back([&, t] {
            for (int rep = 0; rep < 3; ++rep)
                for (int i = t; i < kArtifacts; i += 4) {
                    const auto loaded = store.load(
                        {"collect-shard",
                         static_cast<std::uint64_t>(i)});
                    ASSERT_TRUE(loaded.has_value()) << i;
                    EXPECT_EQ(*loaded, payload);
                }
        });
    for (std::thread &reader : readers)
        reader.join();
    EXPECT_LE(cacheBytesUsed(dir.path / "cache"), kBound);
}

TEST(RemoteStoreTest, DaemonDownDegradesToLocalCache)
{
    const TempDir dir("down");
    fs::create_directories(dir.path / "cache");
    RemoteStoreConfig config;
    config.url = "unix:" + dir.file("nobody-home.sock");
    config.cacheDir = dir.file("cache");
    const ArtifactStore store = makeRemoteStore(config);

    const ArtifactId id{"train", 321};
    const bool quiet = setLogQuiet(true);
    // Store succeeds locally (the upload is best-effort)...
    EXPECT_TRUE(store.store(id, "local only"));
    // ...and load serves it from the cache.
    const auto loaded = store.load(id);
    // A genuinely missing artifact is a plain miss, not a crash.
    const auto missing = store.load({"train", 99});
    setLogQuiet(quiet);
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(*loaded, "local only");
    EXPECT_FALSE(missing.has_value());
}

TEST(RemoteStoreTest, RemoveListAndGcReachTheDaemon)
{
    const TempDir dir("ops");
    fs::create_directories(dir.path / "daemon");
    fs::create_directories(dir.path / "cache");
    const LiveDaemon daemon(dir.file("daemon"), dir.file("store.sock"));
    const ArtifactStore store = workerStore(daemon, dir.file("cache"));

    ASSERT_TRUE(store.store({"collect-shard", 1}, "one"));
    ASSERT_TRUE(store.store({"collect-shard", 2}, "two"));
    ASSERT_TRUE(store.store({"train", 3}, "three"));

    // list merges the daemon's view (all three artifacts).
    EXPECT_EQ(store.list().size(), 3u);

    // remove deletes on both sides.
    EXPECT_TRUE(store.remove({"collect-shard", 2}));
    EXPECT_FALSE(daemon.service.store().contains({"collect-shard", 2}));
    EXPECT_FALSE(store.load({"collect-shard", 2}).has_value());

    // gc against a live set sweeps the daemon too.
    const std::vector<ArtifactId> live = {{"collect-shard", 1}};
    const auto removed = store.gc(live);
    ASSERT_EQ(removed.size(), 1u);
    EXPECT_EQ(removed[0].kind, "train");
    EXPECT_FALSE(daemon.service.store().contains({"train", 3}));
    EXPECT_TRUE(daemon.service.store().contains({"collect-shard", 1}));
}

/** Distinct deterministic payload of artifact `i` (a few KiB). */
std::string
artifactPayload(int i)
{
    std::string bytes(3000 + 97 * i, '\0');
    for (std::size_t b = 0; b < bytes.size(); ++b)
        bytes[b] = static_cast<char>((b * 131 + i * 7) & 0xff);
    return bytes;
}

constexpr int kConcurrentLoaders = 8;

/** Plant artifacts [first, first + count) in the daemon's store. */
void
plantArtifacts(const LiveDaemon &daemon, int first, int count)
{
    for (int i = first; i < first + count; ++i)
        EXPECT_TRUE(daemon.service.store().store(
            {"collect-shard", static_cast<std::uint64_t>(i)},
            artifactPayload(i)));
}

/**
 * Plant `count` artifacts in the daemon's store, then have
 * kConcurrentLoaders threads per worker handle, all released
 * together, load them through handles with empty caches: each handle
 * loads all of them, its thread t taking every kConcurrentLoaders-th
 * artifact from t. Returns what was printed to stderr meanwhile;
 * every payload must come back byte-identical.
 */
std::string
loadTogether(const LiveDaemon &daemon,
             const std::vector<const ArtifactStore *> &workers,
             int first, int count)
{
    plantArtifacts(daemon, first, count);
    testing::internal::CaptureStderr();
    const int threads =
        kConcurrentLoaders * static_cast<int>(workers.size());
    std::atomic<int> ready{0};
    std::vector<std::thread> loaders;
    for (int n = 0; n < threads; ++n)
        loaders.emplace_back([&, n] {
            const ArtifactStore &worker = *workers[n / kConcurrentLoaders];
            const int t = n % kConcurrentLoaders;
            ready.fetch_add(1);
            while (ready.load() < threads)
                std::this_thread::yield();
            for (int i = first + t; i < first + count;
                 i += kConcurrentLoaders) {
                const auto loaded = worker.load(
                    {"collect-shard", static_cast<std::uint64_t>(i)});
                ASSERT_TRUE(loaded.has_value()) << i;
                EXPECT_EQ(*loaded, artifactPayload(i)) << i;
            }
        });
    for (std::thread &loader : loaders)
        loader.join();
    return testing::internal::GetCapturedStderr();
}

/** loadTogether through one worker handle. */
std::string
loadConcurrently(const LiveDaemon &daemon, const ArtifactStore &worker,
                 int first, int count)
{
    return loadTogether(daemon, {&worker}, first, count);
}

TEST(RemoteStoreTest, ConcurrentLoadsOfDistinctArtifactsAreByteIdentical)
{
    const TempDir dir("concurrent");
    fs::create_directories(dir.path / "daemon");
    fs::create_directories(dir.path / "cache");
    const LiveDaemon daemon(dir.file("daemon"), dir.file("store.sock"));
    const ArtifactStore worker = workerStore(daemon, dir.file("cache"));
    const std::string log = loadConcurrently(daemon, worker, 0, 32);
    EXPECT_EQ(log, "");
}

TEST(RemoteStoreTest, ConnectionCapOfOneServesEveryConcurrentLoad)
{
    // The daemon accepts and closes every connection past its cap,
    // so all but one of the worker's pooled connections are refused;
    // the loads move to the connection that stays open instead of
    // missing or going local-only.
    const TempDir dir("cap");
    fs::create_directories(dir.path / "daemon");
    fs::create_directories(dir.path / "cache");
    const LiveDaemon daemon(dir.file("daemon"), dir.file("store.sock"),
                            {}, 1);
    const ArtifactStore worker = workerStore(daemon, dir.file("cache"));
    // One load first, so the concurrent ones find a connection open
    // and open extras beside it.
    ASSERT_TRUE(daemon.service.store().store({"train", 1}, "warm-up"));
    ASSERT_TRUE(worker.load({"train", 1}).has_value());
    const std::string log = loadConcurrently(daemon, worker, 0, 32);
    EXPECT_EQ(log.find("local-only"), std::string::npos) << log;
    EXPECT_EQ(log, "");
}

TEST(RemoteStoreTest, DaemonRestartedMidRunRecoversWithOneRetry)
{
    // Every pooled connection goes stale when the daemon restarts.
    // The next load's one retry opens a new connection (the stale
    // idle ones are dropped with the first failure), so loads after
    // the restart hit, concurrent ones included, and nothing warns.
    const TempDir dir("restart");
    fs::create_directories(dir.path / "daemon");
    fs::create_directories(dir.path / "cache");
    std::optional<LiveDaemon> daemon;
    daemon.emplace(dir.file("daemon"), dir.file("store.sock"));
    const ArtifactStore worker = workerStore(*daemon, dir.file("cache"));
    EXPECT_EQ(loadConcurrently(*daemon, worker, 0, 16), "");

    daemon.reset();
    daemon.emplace(dir.file("daemon"), dir.file("store.sock"));
    ASSERT_TRUE(
        daemon->service.store().store({"train", 2}, "after restart"));
    testing::internal::CaptureStderr();
    const auto loaded = worker.load({"train", 2});
    EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(*loaded, "after restart");
    EXPECT_EQ(loadConcurrently(*daemon, worker, 16, 16), "");
}

TEST(RemoteStoreTest, HandlesWhosePoolsExceedTheCapAllHit)
{
    // Three workers whose pools could open 12 connections share a
    // daemon capped at 3. A worker keeps only one connection once
    // its burst ends, so all three fit at rest; a worker whose first
    // connection lands while another's burst fills the cap backs off
    // and reconnects instead of going local-only.
    const TempDir dir("fleetcap");
    fs::create_directories(dir.path / "daemon");
    LiveDaemon daemon(dir.file("daemon"), dir.file("store.sock"), {},
                      3);
    daemon.handler.delayUs = 500;
    std::vector<ArtifactStore> workers;
    for (int w = 0; w < 3; ++w) {
        const std::string cache = dir.file("cache" + std::to_string(w));
        fs::create_directories(cache);
        workers.push_back(workerStore(daemon, cache));
    }
    const std::string log = loadTogether(
        daemon, {&workers[0], &workers[1], &workers[2]}, 0, 24);
    EXPECT_EQ(log, "");
    // At rest each worker holds one connection: the cap has room for
    // a serial load by every one of them, and nothing warns.
    ASSERT_TRUE(daemon.service.store().store({"train", 3}, "at rest"));
    testing::internal::CaptureStderr();
    for (const ArtifactStore &worker : workers)
        EXPECT_TRUE(worker.load({"train", 3}).has_value());
    EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
}

TEST(RemoteStoreTest, RestartUnderConcurrentLoadsKeepsThePoolWide)
{
    // Loads that find the daemon down miss; none of them may shrink
    // the pool for good. Once the daemon is back, concurrent loads
    // again run on more than one connection.
    const TempDir dir("restartwide");
    fs::create_directories(dir.path / "daemon");
    fs::create_directories(dir.path / "cache");
    std::optional<LiveDaemon> daemon;
    daemon.emplace(dir.file("daemon"), dir.file("store.sock"));
    daemon->handler.delayUs = 1000;
    const ArtifactStore worker = workerStore(*daemon, dir.file("cache"));
    plantArtifacts(*daemon, 0, 64);

    testing::internal::CaptureStderr(); // the down window warns
    std::atomic<int> ready{0};
    std::vector<std::thread> loaders;
    for (int t = 0; t < kConcurrentLoaders; ++t)
        loaders.emplace_back([&, t] {
            ready.fetch_add(1);
            for (int i = t; i < 64; i += kConcurrentLoaders) {
                const auto loaded = worker.load(
                    {"collect-shard", static_cast<std::uint64_t>(i)});
                if (loaded) { // a miss is allowed while it is down
                    EXPECT_EQ(*loaded, artifactPayload(i)) << i;
                }
            }
        });
    while (ready.load() < kConcurrentLoaders)
        std::this_thread::yield();
    std::this_thread::sleep_for(std::chrono::milliseconds(3));
    daemon.reset();
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    daemon.emplace(dir.file("daemon"), dir.file("store.sock"));
    for (std::thread &loader : loaders)
        loader.join();
    testing::internal::GetCapturedStderr();

    daemon->handler.delayUs = 1000;
    EXPECT_EQ(loadConcurrently(*daemon, worker, 64, 16), "");
    EXPECT_GT(daemon->handler.maxInFlight.load(), 1);
}

TEST(RemoteStoreTest, ColdAndWarmClusterRunsAreByteIdentical)
{
    // Worker A collects cold through the daemon; workers B and C
    // start with empty caches (a "warm cluster" from their point of
    // view) at different thread counts. Everything must be a store
    // hit and byte-identical to the cold run.
    const TempDir dir("cluster");
    fs::create_directories(dir.path / "daemon");
    const LiveDaemon daemon(dir.file("daemon"), dir.file("store.sock"));
    const SuiteProfile suite = miniSuite();
    CollectionConfig config = miniConfig();
    config.shards = 2;

    std::string cold_bytes;
    {
        fs::create_directories(dir.path / "a");
        pipeline::Pipeline pipe{workerStore(daemon, dir.file("a"))};
        const SuiteData data =
            pipeline::collectStage(pipe, suite, config);
        EXPECT_EQ(pipe.cachedCount(), 0u);
        cold_bytes = pipeline::encodeSuiteData(data);
    }

    int worker = 0;
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        ThreadPool::resetGlobalForTest(threads);
        const std::string cache =
            dir.file("w" + std::to_string(worker++));
        fs::create_directories(cache);
        pipeline::Pipeline pipe{workerStore(daemon, cache)};
        const SuiteData data =
            pipeline::collectStage(pipe, suite, config);
        EXPECT_TRUE(pipe.allCached()) << "threads=" << threads;
        EXPECT_EQ(pipeline::encodeSuiteData(data), cold_bytes)
            << "threads=" << threads;
    }
    ThreadPool::resetGlobalForTest(0);
}

TEST(RemoteStoreTest, SingleBenchmarkChangeInvalidatesOnlyItsShards)
{
    // The acceptance criterion of shard-granular keys: perturbing one
    // benchmark's profile recomputes exactly that benchmark's shard
    // artifacts; every other shard stays a store hit.
    const TempDir dir("invalidate");
    fs::create_directories(dir.path / "daemon");
    fs::create_directories(dir.path / "warm");
    const LiveDaemon daemon(dir.file("daemon"), dir.file("store.sock"));
    SuiteProfile suite = miniSuite();
    CollectionConfig config = miniConfig();
    config.shards = 2;

    {
        pipeline::Pipeline pipe{workerStore(daemon, dir.file("warm"))};
        pipeline::collectStage(pipe, suite, config);
    }

    // Perturb one benchmark; a fresh worker re-runs the plan.
    suite.benchmarks[1].instructionWeight += 0.25;
    fs::create_directories(dir.path / "fresh");
    pipeline::Pipeline pipe{workerStore(daemon, dir.file("fresh"))};
    pipeline::collectStage(pipe, suite, config);

    const std::size_t total = pipe.runs().size();
    EXPECT_EQ(total, 6u); // 3 benchmarks x 2 shards
    std::size_t misses = 0;
    for (const pipeline::StageRun &run : pipe.runs())
        if (!run.cached) {
            ++misses;
            EXPECT_NE(run.label.find("mini.1"), std::string::npos)
                << run.label;
        }
    EXPECT_EQ(misses, 2u); // both shards of mini.1, nothing else
}

} // namespace
} // namespace wct
