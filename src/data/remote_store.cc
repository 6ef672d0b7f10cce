#include "data/remote_store.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <istream>
#include <mutex>
#include <ostream>
#include <thread>

#include "util/logging.hh"
#include "util/socket_io.hh"

namespace wct
{

namespace fs = std::filesystem;

std::optional<StoreEndpoint>
parseStoreUrl(const std::string &url, std::string *err)
{
    const auto failWith = [err](const std::string &reason)
        -> std::optional<StoreEndpoint> {
        if (err != nullptr)
            *err = reason;
        return std::nullopt;
    };
    if (url.rfind("unix:", 0) == 0) {
        StoreEndpoint endpoint;
        endpoint.unixPath = url.substr(5);
        if (endpoint.unixPath.empty())
            return failWith("empty unix socket path in '" + url +
                            "'");
        return endpoint;
    }
    if (url.rfind("tcp:", 0) == 0) {
        const std::string digits = url.substr(4);
        if (digits.empty() ||
            digits.find_first_not_of("0123456789") !=
                std::string::npos)
            return failWith("bad port in '" + url + "'");
        const long port = std::stol(digits);
        if (port < 1 || port > 65535)
            return failWith("port out of range in '" + url + "'");
        StoreEndpoint endpoint;
        endpoint.tcpPort = static_cast<int>(port);
        return endpoint;
    }
    return failWith("store url must be unix:PATH or tcp:PORT, got '" +
                    url + "'");
}

StoreClient::~StoreClient()
{
    closeFd(fd_);
}

StoreClient::StoreClient(StoreClient &&other) noexcept
    : fd_(other.fd_)
{
    other.fd_ = -1;
}

StoreClient &
StoreClient::operator=(StoreClient &&other) noexcept
{
    if (this != &other) {
        closeFd(fd_);
        fd_ = other.fd_;
        other.fd_ = -1;
    }
    return *this;
}

std::optional<StoreClient>
StoreClient::connect(const StoreEndpoint &endpoint, std::string *err)
{
    const int fd = endpoint.unixPath.empty()
                       ? connectTcp(endpoint.tcpPort, err)
                       : connectUnix(endpoint.unixPath, err);
    if (fd < 0)
        return std::nullopt;
    return StoreClient(fd);
}

std::optional<StoreResponse>
StoreClient::call(const StoreRequest &request, std::string *err)
{
    FdStreambuf buf(fd_);
    std::ostream out(&buf);
    std::istream in(&buf);
    writeStoreFrame(out, encodeStoreRequest(request));
    if (!out) {
        if (err != nullptr)
            *err = "write failed (daemon closed the connection?)";
        return std::nullopt;
    }
    const auto payload = readStoreFrame(in);
    if (!payload) {
        if (err != nullptr)
            *err = "no response (connection closed or corrupt "
                   "frame)";
        return std::nullopt;
    }
    std::string decode_err;
    auto response = decodeStoreResponse(*payload, &decode_err);
    if (!response) {
        if (err != nullptr)
            *err = decode_err;
        return std::nullopt;
    }
    return response;
}

namespace
{

/** Daemon connections one handle has open at most: the daemon's
 * default --dispatch-threads, so each has a dispatch worker to serve
 * it. Only concurrent calls open more than one. */
constexpr std::size_t kMaxPooledConnections = 4;

/** Reconnects after the daemon closes a handle's only connection
 * unanswered, waiting 1, 2, 4, ... ms: 255 ms in all. */
constexpr int kRefusedBackoffs = 8;

/** The read-through remote backend; see the header's file comment. */
class RemoteStoreBackend final : public StoreBackend
{
  public:
    explicit RemoteStoreBackend(RemoteStoreConfig config)
        : config_(std::move(config)), cache_(config_.cacheDir)
    {
    }

    const std::string &
    dir() const override
    {
        return cache_.dir();
    }

    std::string
    path(const ArtifactId &id) const override
    {
        return cache_.path(id);
    }

    bool
    contains(const ArtifactId &id) const override
    {
        if (cache_.contains(id))
            return true;
        StoreRequest request;
        request.op = StoreOp::Stat;
        request.artifact = id;
        const auto response = call(std::move(request));
        return response && response->status == StoreStatus::Ok;
    }

    std::optional<std::string>
    load(const ArtifactId &id) const override
    {
        if (auto hit = cache_.load(id)) {
            touch(cache_.path(id));
            return hit;
        }
        StoreRequest request;
        request.op = StoreOp::Load;
        request.artifact = id;
        auto response = call(std::move(request));
        if (!response ||
            response->status == StoreStatus::NotFound)
            return std::nullopt; // a plain miss
        if (response->status != StoreStatus::Ok) {
            wct_warn("store daemon refused load of '", id.fileName(),
                     "': ", storeStatusName(response->status), " (",
                     response->error, "); recomputing");
            return std::nullopt;
        }
        // Content-addressed kinds re-verify on every fetch: a corrupt
        // or lying daemon degrades to a recompute, never to wrong
        // bytes served under a content key.
        if (contentKind(id.kind) &&
            fnv1a64(response->payload) != id.key) {
            wct_warn("remote artifact '", id.fileName(),
                     "' failed content re-hash (tampered or corrupt "
                     "daemon?); recomputing");
            return std::nullopt;
        }
        if (cache_.store(id, response->payload))
            evictToFit(cache_.path(id));
        return std::move(response->payload);
    }

    bool
    store(const ArtifactId &id,
          std::string_view payload) const override
    {
        const bool local = cache_.store(id, payload);
        if (local)
            evictToFit(cache_.path(id));
        StoreRequest request;
        request.op = StoreOp::Store;
        request.artifact = id;
        request.payload = std::string(payload);
        const auto response = call(std::move(request));
        const bool remote =
            response && response->status == StoreStatus::Ok;
        if (response && !remote)
            wct_warn("store daemon refused upload of '",
                     id.fileName(),
                     "': ", storeStatusName(response->status), " (",
                     response->error, ")");
        // A failed upload costs sharing, not correctness: the local
        // copy (or the recompute path) still serves this run.
        return local || remote;
    }

    bool
    remove(const ArtifactId &id) const override
    {
        const bool local = cache_.remove(id);
        StoreRequest request;
        request.op = StoreOp::Remove;
        request.artifact = id;
        const auto response = call(std::move(request));
        return (response && response->status == StoreStatus::Ok) ||
               local;
    }

    std::vector<ArtifactInfo>
    list() const override
    {
        StoreRequest request;
        request.op = StoreOp::List;
        const auto response = call(std::move(request));
        if (!response || response->status != StoreStatus::Ok)
            return cache_.list(); // degrade to what we have locally
        return response->artifacts;
    }

    std::vector<ArtifactId>
    gc(const std::vector<ArtifactId> &live,
       std::uint64_t graceSeconds) const override
    {
        // The local cache is swept quietly with the same liveness;
        // the daemon's sweep is the one reported.
        const auto localRemoved = cache_.gc(live, graceSeconds);
        StoreRequest request;
        request.op = StoreOp::Gc;
        request.live = live;
        request.graceSeconds = graceSeconds;
        const auto response = call(std::move(request));
        if (!response || response->status != StoreStatus::Ok)
            return localRemoved;
        return response->removed;
    }

  private:
    bool
    contentKind(const std::string &kind) const
    {
        return std::find(config_.contentKinds.begin(),
                         config_.contentKinds.end(),
                         kind) != config_.contentKinds.end();
    }

    /** A connection checked out of the pool for one round trip. */
    struct Lease
    {
        std::optional<StoreClient> client; ///< nullopt: connect failed
        bool fresh = false; ///< opened for this round trip
        bool extra = false; ///< opened beside another: one round trip
        std::string err;    ///< why the connect failed
    };

    /** What release() does with a leased connection. */
    enum class Drop
    {
        Keep,    ///< it answered: idle, or closed if an extra
        Refused, ///< an extra the daemon closed unanswered: shrink
        Broken,  ///< close it, and the idle ones a restart left stale
    };

    /**
     * One round trip on a pooled connection; the mutex guards only
     * the pool, never the round trip. A daemon over its
     * --max-connections accepts and closes, so a new connection that
     * fails before its first answer was refused, not lost: an extra
     * one is dropped and the request waits for an open connection; a
     * handle's only one backs off and reconnects (other workers'
     * extras close after each round trip). A connection that answered
     * before and fails now (a restart left it stale) is retried once.
     * A daemon that is down, or stays full or broken, warns once and
     * turns every later call into a cheap local-only miss.
     */
    std::optional<StoreResponse>
    call(StoreRequest request) const
    {
        request.id =
            nextId_.fetch_add(1, std::memory_order_relaxed);
        bool retried = false;
        for (int backoffs = 0;;) {
            Lease lease = acquire();
            if (!lease.client) {
                release(lease, Drop::Broken);
                warnOnce(lease.err);
                return std::nullopt;
            }
            std::string err;
            auto response = lease.client->call(request, &err);
            if (response) {
                if (response->id == request.id &&
                    response->op == request.op) {
                    release(lease, Drop::Keep);
                    return response;
                }
                release(lease, Drop::Broken);
                warnOnce("store daemon answered with a mismatched "
                         "frame; dropping the connection");
                return std::nullopt;
            }
            if (lease.extra) { // extras are always new
                release(lease, Drop::Refused);
                continue;
            }
            release(lease, Drop::Broken);
            if (!lease.fresh) {
                if (retried)
                    break;
                retried = true; // stale connection: retry once
                continue;
            }
            if (backoffs == kRefusedBackoffs || warned()) {
                warnOnce("store daemon at '" + config_.url +
                         "' keeps closing new connections (over its "
                         "--max-connections?); continuing local-only");
                return std::nullopt;
            }
            std::this_thread::sleep_for(
                std::chrono::milliseconds(1 << backoffs++));
        }
        warnOnce("store daemon at '" + config_.url +
                 "' dropped the connection; continuing local-only");
        return std::nullopt;
    }

    /** An idle connection, else a new one while the pool is under
     * its limit, else wait for one to come back. */
    Lease
    acquire() const
    {
        Lease lease;
        {
            std::unique_lock lock(mutex_);
            poolCv_.wait(lock, [this] {
                return idle_.has_value() || open_ < limit_;
            });
            if (idle_) {
                lease.client = std::move(idle_);
                idle_.reset();
                return lease;
            }
            lease.fresh = true;
            lease.extra = open_ > 0;
            ++open_; // reserve the slot; connect outside the lock
        }
        const auto endpoint = parseStoreUrl(config_.url, &lease.err);
        if (!endpoint)
            return lease;
        std::string err;
        lease.client = StoreClient::connect(*endpoint, &err);
        if (!lease.client)
            lease.err = "store daemon at '" + config_.url +
                        "' unreachable (" + err +
                        "); continuing local-only";
        return lease;
    }

    /**
     * Return a leased connection. Only the handle's first connection
     * stays open between calls; an extra one, opened while another
     * was open, closes after its round trip. So a handle holds one
     * daemon connection at rest, as before the pool, and a burst's
     * extras hold a slot of the daemon's --max-connections only while
     * they fetch, never while other workers wait to connect. The
     * pool's limit shrinks when the daemon refuses an extra and grows
     * back once no connection is leased.
     */
    void
    release(Lease &lease, Drop drop) const
    {
        std::optional<StoreClient> closing;
        {
            std::lock_guard lock(mutex_);
            if (drop == Drop::Keep) {
                warned_ = false; // the daemon answers again
                if (!lease.extra) {
                    idle_ = std::move(lease.client);
                } else {
                    closing = std::move(lease.client);
                    --open_;
                }
            } else {
                --open_;
                if (drop == Drop::Refused) {
                    limit_ = std::max<std::size_t>(1, open_);
                } else if (idle_) {
                    closing = std::move(idle_); // stale after a restart
                    idle_.reset();
                    --open_;
                }
            }
            if (open_ == (idle_ ? 1u : 0u))
                limit_ = kMaxPooledConnections;
        }
        poolCv_.notify_all();
    }

    bool
    warned() const
    {
        std::lock_guard lock(mutex_);
        return warned_;
    }

    void
    warnOnce(const std::string &message) const
    {
        {
            std::lock_guard lock(mutex_);
            if (warned_)
                return;
            warned_ = true;
        }
        wct_warn(message);
    }

    /** Refresh an entry's LRU stamp on a cache hit. */
    void
    touch(const std::string &path) const
    {
        std::error_code ec;
        fs::last_write_time(path, fs::file_time_type::clock::now(),
                            ec);
    }

    /**
     * Enforce --store-cache-bytes: oldest-mtime-first removal until
     * the cache dir fits, never touching the entry just written.
     * POSIX unlink keeps a concurrent reader of an evicted file safe
     * (its descriptor stays valid); a reader that misses instead
     * simply re-fetches from the daemon.
     */
    void
    evictToFit(const std::string &protect) const
    {
        if (config_.cacheBytes == 0 || !cache_.enabled())
            return;
        std::lock_guard lock(evictMutex_);
        struct Entry
        {
            std::string path;
            std::uintmax_t bytes = 0;
            fs::file_time_type mtime;
        };
        std::vector<Entry> entries;
        std::uintmax_t total = 0;
        std::error_code ec;
        for (const auto &file :
             fs::directory_iterator(cache_.dir(), ec)) {
            if (!file.is_regular_file() ||
                file.path().extension() != ".wctart")
                continue;
            Entry entry;
            entry.path = file.path().string();
            entry.bytes = file.file_size(ec);
            entry.mtime = fs::last_write_time(file.path(), ec);
            total += entry.bytes;
            entries.push_back(std::move(entry));
        }
        if (total <= config_.cacheBytes)
            return;
        std::sort(entries.begin(), entries.end(),
                  [](const Entry &a, const Entry &b) {
                      return a.mtime != b.mtime ? a.mtime < b.mtime
                                                : a.path < b.path;
                  });
        for (const Entry &entry : entries) {
            if (entry.path == protect)
                continue;
            if (fs::remove(entry.path, ec) && !ec)
                total -= entry.bytes;
            if (total <= config_.cacheBytes)
                break;
        }
    }

    RemoteStoreConfig config_;
    ArtifactStore cache_;
    mutable std::mutex mutex_; ///< the pool fields and warned_
    mutable std::condition_variable poolCv_;
    mutable std::optional<StoreClient> idle_; ///< the first connection
    mutable std::size_t open_ = 0; ///< idle plus leased connections
    mutable std::size_t limit_ = kMaxPooledConnections;
    mutable bool warned_ = false;
    mutable std::mutex evictMutex_; ///< cache-size enforcement
    mutable std::atomic<std::uint64_t> nextId_{1};
};

} // namespace

ArtifactStore
makeRemoteStore(const RemoteStoreConfig &config)
{
    return ArtifactStore(
        std::make_shared<RemoteStoreBackend>(config));
}

} // namespace wct
