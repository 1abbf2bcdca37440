#include "sim/serve.hh"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

#include "common/fault.hh"
#include "common/hash.hh"
#include "common/logging.hh"
#include "common/number_text.hh"
#include "sim/result_io.hh"
#include "subchannel/counter_slab.hh"

namespace moatsim::sim
{

namespace
{

/** Copy @p path into an AF_UNIX address; false when it cannot fit. */
bool
unixAddressOf(const std::string &path, sockaddr_un *addr)
{
    if (path.empty() || path.size() >= sizeof(addr->sun_path))
        return false;
    std::memset(addr, 0, sizeof(*addr));
    addr->sun_family = AF_UNIX;
    std::memcpy(addr->sun_path, path.c_str(), path.size() + 1);
    return true;
}

/** Write all of @p data; false once the peer is gone. MSG_NOSIGNAL
 *  turns a dead-peer SIGPIPE into an error return. */
bool
sendAll(int fd, const std::string &data)
{
    size_t off = 0;
    while (off < data.size()) {
        const ssize_t n = ::send(fd, data.data() + off,
                                 data.size() - off, MSG_NOSIGNAL);
        if (n <= 0) {
            if (n < 0 && errno == EINTR)
                continue;
            return false;
        }
        off += static_cast<size_t>(n);
    }
    return true;
}

bool
writeLine(int fd, const std::string &line)
{
    return sendAll(fd, line + "\n");
}

/** A server->client protocol line; the serve.send fault site fails it
 *  like a broken pipe would (the client-side sends stay clean -- the
 *  site models the daemon's I/O, not the peer's). */
bool
serverWriteLine(int fd, const std::string &line)
{
    if (fault::shouldFail("serve.send"))
        return false;
    return writeLine(fd, line);
}

std::string
errorLine(const std::string &message, bool retryable)
{
    JsonLineWriter w;
    w.field("kind", "error").field("message", message);
    if (retryable)
        w.field("retryable", true);
    return w.line();
}

} // namespace

bool
transientAcceptError(int err)
{
    // Resource-exhaustion bursts and aborted handshakes: the listener
    // is still good, so ending the loop would turn a load spike into
    // an outage. Everything else (EBADF, EINVAL after shutdown, ...)
    // means the listening socket itself is gone.
    return err == EMFILE || err == ENFILE || err == ECONNABORTED ||
           err == ENOBUFS || err == ENOMEM || err == EAGAIN ||
           err == EWOULDBLOCK;
}

Server::Server(const ServeConfig &config) : config_(config)
{
    stores_.traces =
        std::make_shared<workload::TraceStore>(config_.traceStore);
    stores_.results = std::make_shared<ResultStore>(config_.resultStore);
    stores_.baselines = std::make_shared<BaselineCache>();
}

Server::~Server()
{
    stop();
    joinConnections();
    if (listen_fd_ >= 0) {
        ::close(listen_fd_);
        ::unlink(config_.socketPath.c_str());
    }
}

void
Server::start()
{
    sockaddr_un addr{};
    if (!unixAddressOf(config_.socketPath, &addr))
        fatal("serve: socket path is empty or too long for AF_UNIX: '" +
              config_.socketPath + "'");
    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listen_fd_ < 0)
        fatal("serve: cannot create socket (errno " +
              std::to_string(errno) + ")");
    // Replace a stale socket file from a previous run; a live server
    // on the same path would have to be stopped first anyway.
    ::unlink(config_.socketPath.c_str());
    if (::bind(listen_fd_, reinterpret_cast<const sockaddr *>(&addr),
               sizeof(addr)) != 0)
        fatal("serve: cannot bind " + config_.socketPath + " (errno " +
              std::to_string(errno) + ")");
    if (::listen(listen_fd_, 64) != 0)
        fatal("serve: cannot listen on " + config_.socketPath +
              " (errno " + std::to_string(errno) + ")");
}

void
Server::serveForever()
{
    unsigned backoff_step = 0;
    while (true) {
        // The serve.accept fault models one transient accept()
        // failure (an EMFILE burst); the pending connection is left
        // queued and picked up after the backoff.
        const bool injected = fault::shouldFail("serve.accept");
        const int fd =
            injected ? -1 : ::accept(listen_fd_, nullptr, nullptr);
        if (fd < 0) {
            const int err = injected ? EMFILE : errno;
            if (err == EINTR)
                continue;
            bool stop_now = false;
            {
                MutexLock lock(mu_);
                stop_now = stopping_;
            }
            if (stop_now)
                break;
            if (transientAcceptError(err)) {
                // Self-healing: count it, back off (bounded,
                // deterministic -- a fixed sleep, not a clock read),
                // and keep listening. Only stop() or a fatal listener
                // error may end the accept loop.
                {
                    MutexLock lock(mu_);
                    ++accept_retries_;
                }
                std::this_thread::sleep_for(std::chrono::milliseconds(
                    1ULL << backoff_step));
                if (backoff_step < 5)
                    ++backoff_step;
                continue;
            }
            // The listening socket itself is broken; the loop is over.
            warn("serve: accept failed fatally (errno " +
                 std::to_string(err) + "); stopping");
            break;
        }
        backoff_step = 0;
        std::vector<std::thread> finished;
        {
            MutexLock lock(mu_);
            if (stopping_) {
                ::close(fd);
                break;
            }
            finished = takeFinishedThreads();
            conn_fds_.push_back(fd);
            threads_.emplace_back(&Server::handleConnection, this, fd);
        }
        for (auto &t : finished)
            t.join();
    }
    joinConnections();
}

void
Server::stop()
{
    {
        MutexLock lock(mu_);
        if (stopping_)
            return;
        stopping_ = true;
        // Half-close: unblock every connection read without severing
        // the write side, so in-flight replies drain to their peers
        // (each bounded by config_.drainCells -- see runOnConnection).
        for (const int fd : conn_fds_)
            ::shutdown(fd, SHUT_RD);
        cv_.notifyAll();
    }
    if (listen_fd_ >= 0)
        ::shutdown(listen_fd_, SHUT_RDWR);
}

void
Server::handleConnection(int fd)
{
    std::string buf;
    char chunk[4096];
    bool open = true;
    while (open) {
        // The serve.recv fault models a failed request read: the
        // connection drops (the client reconnects and retries) but
        // the daemon keeps serving.
        if (fault::shouldFail("serve.recv"))
            break;
        const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
        if (n <= 0) {
            if (n < 0 && errno == EINTR)
                continue;
            break;
        }
        buf.append(chunk, static_cast<size_t>(n));
        size_t nl = 0;
        while (open && (nl = buf.find('\n')) != std::string::npos) {
            const std::string line = buf.substr(0, nl);
            buf.erase(0, nl + 1);
            if (!line.empty())
                open = handleLine(fd, line);
        }
    }
    ::close(fd);
    MutexLock lock(mu_);
    std::erase(conn_fds_, fd);
    finished_.push_back(std::this_thread::get_id());
}

std::vector<std::thread>
Server::takeFinishedThreads()
{
    std::vector<std::thread> out;
    for (const auto id : finished_) {
        const auto it = std::find_if(
            threads_.begin(), threads_.end(),
            [id](const std::thread &t) { return t.get_id() == id; });
        out.push_back(std::move(*it));
        threads_.erase(it);
    }
    finished_.clear();
    return out;
}

void
Server::joinConnections()
{
    std::vector<std::thread> threads;
    {
        MutexLock lock(mu_);
        threads.swap(threads_);
    }
    for (auto &t : threads)
        t.join();
    // Every joined thread recorded itself as finished on its way out.
    MutexLock lock(mu_);
    finished_.clear();
}

bool
Server::handleLine(int fd, const std::string &line)
{
    std::string kind;
    std::string err;
    if (!tryJsonField(line, "kind", &kind, &err))
        return serverWriteLine(fd, errorLine(err, false));
    if (kind == "stats")
        return serverWriteLine(fd, statsLine());
    if (kind == "shutdown") {
        serverWriteLine(fd, JsonLineWriter().field("kind", "bye").line());
        stop();
        return false;
    }
    if (kind == "perf" || kind == "coattack" || kind == "attack") {
        RunRequest req;
        if (!tryRunRequestOfJsonLine(line, &req, &err))
            return serverWriteLine(fd, errorLine(err, false));
        const bool keep = runOnConnection(fd, req);
        bool last = false;
        {
            MutexLock lock(mu_);
            ++served_requests_;
            last = config_.maxRequests > 0 &&
                   served_requests_ >= config_.maxRequests;
        }
        if (last)
            stop();
        return keep;
    }
    return serverWriteLine(
        fd, errorLine("unknown request kind \"" + kind + "\"", false));
}

bool
Server::runOnConnection(int fd, const RunRequest &req)
{
    std::string err;
    if (!validateRunRequest(req, &err)) {
        // Rejections are not retryable: the same bytes cannot pass
        // validation on a re-send.
        return serverWriteLine(fd, errorLine(err, false));
    }
    const double cost = estimatedCost(req);
    admit(cost);

    size_t cells = 0;
    bool io_ok = true;
    uint64_t drained_after_stop = 0;
    std::string failure;
    {
        // Cells stream from worker threads; serialize the socket.
        // Once a send fails, stop writing but let the sweep finish:
        // every completed cell still lands in the shared stores, so
        // the client's retry recomputes nothing.
        Mutex write_mu;
        const auto emit = [&](size_t index,
                              const std::string &payload) {
            MutexLock lock(write_mu);
            ++cells;
            if (!io_ok)
                return;
            if (config_.drainCells > 0) {
                bool stopping = false;
                {
                    MutexLock state_lock(mu_);
                    stopping = stopping_;
                }
                // Shutdown drain budget: after stop(), this reply may
                // stream at most drainCells more cells before the
                // socket is severed (bounded shutdown, no clock).
                if (stopping &&
                    ++drained_after_stop > config_.drainCells) {
                    ::shutdown(fd, SHUT_RDWR);
                    io_ok = false;
                    return;
                }
            }
            if (!serverWriteLine(fd, JsonLineWriter()
                                         .field("kind", "cell")
                                         .field("index", index)
                                         .field("payload", payload)
                                         .line()))
                io_ok = false;
        };
        try {
            runRequest(req, stores_, emit);
        } catch (const std::exception &e) {
            // A failed cell compute fails this request, not the
            // daemon: tag it retryable -- the stores cached every
            // cell that did finish, so a re-send converges.
            release(cost);
            {
                MutexLock lock(mu_);
                ++compute_failures_;
            }
            return serverWriteLine(
                fd, errorLine(std::string("cell compute failed: ") +
                                  e.what(),
                              true));
        }
    }

    release(cost);
    if (!io_ok)
        return false; // close: the truncated stream is the retry cue
    // The request's content-address closes the reply: clients can
    // correlate identical sweeps across sessions without re-deriving
    // the key themselves.
    return serverWriteLine(fd, JsonLineWriter()
                                   .field("kind", "done")
                                   .field("cells", cells)
                                   .field("cost", cost)
                                   .field("request",
                                          hexText(requestKey(req), 16))
                                   .line());
}

void
Server::admit(double cost)
{
    MutexLock lock(mu_);
    while (!stopping_ && config_.maxCost > 0.0 && admitted_cost_ > 0.0 &&
           admitted_cost_ + cost > config_.maxCost)
        cv_.wait(lock);
    admitted_cost_ += cost;
    ++active_requests_;
}

void
Server::release(double cost)
{
    MutexLock lock(mu_);
    admitted_cost_ -= cost;
    --active_requests_;
    cv_.notifyAll();
}

std::string
Server::statsLine()
{
    const ResultStore::Stats rs = stores_.results->stats();
    const workload::TraceStore::Stats ts = stores_.traces->stats();
    const BaselineCache::Stats bs = stores_.baselines->stats();
    const subchannel::CounterSlab::PoolStats slabs =
        subchannel::CounterSlab::poolStats();
    uint64_t active = 0;
    uint64_t accept_retries = 0;
    uint64_t compute_failures = 0;
    double admitted = 0.0;
    {
        MutexLock lock(mu_);
        active = active_requests_;
        accept_retries = accept_retries_;
        compute_failures = compute_failures_;
        admitted = admitted_cost_;
    }
    return JsonLineWriter()
        .field("kind", "stats")
        .field("entries", rs.entries)
        .field("hits", rs.hits)
        .field("misses", rs.misses)
        .field("computes", rs.computes)
        .field("loaded", rs.loaded)
        .field("corrupt", rs.corrupt)
        .field("quarantined", rs.quarantined)
        .field("compactions", rs.compactions)
        .field("append_failures", rs.appendFailures)
        .field("in_flight", rs.inFlight)
        .field("trace_hits", ts.hits)
        .field("trace_misses", ts.misses)
        .field("baseline_replays", bs.replayed)
        .field("baseline_adopted", bs.adopted)
        .field("active", active)
        .field("accept_retries", accept_retries)
        .field("compute_failures", compute_failures)
        .field("admitted_cost", admitted)
        .field("slab_pooled_bytes", slabs.pooledBytes)
        .field("slab_reuses", slabs.reuses)
        .field("slab_allocs", slabs.allocs)
        .line();
}

namespace
{

/** Connect to @p path; -1 with @p err set on failure. */
int
connectTo(const std::string &path, std::string *err)
{
    sockaddr_un addr{};
    if (!unixAddressOf(path, &addr)) {
        *err = "socket path is empty or too long for AF_UNIX: '" +
               path + "'";
        return -1;
    }
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) {
        *err = "cannot create socket (errno " + std::to_string(errno) +
               ")";
        return -1;
    }
    if (::connect(fd, reinterpret_cast<const sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        *err = "cannot connect to " + path + " (errno " +
               std::to_string(errno) + ")";
        ::close(fd);
        return -1;
    }
    return fd;
}

/** Cells of one reply as they arrive: (index, payload) pairs. */
using ReceivedCells = std::vector<std::pair<size_t, std::string>>;

/** Put @p received into request order in @p cells; false unless the
 *  indices are exactly 0..count-1, each once. */
bool
placeCells(ReceivedCells &received, size_t count,
           std::vector<std::string> *cells)
{
    // Compared before anything is sized by the server's count.
    if (received.size() != count)
        return false;
    std::vector<std::string> placed(count);
    std::vector<bool> seen(count, false);
    for (auto &[index, payload] : received) {
        if (index >= count || seen[index])
            return false;
        seen[index] = true;
        placed[index] = std::move(payload);
    }
    *cells = std::move(placed);
    return true;
}

/** Fold one server line into @p reply; true on the terminal line
 *  (done/stats/bye/error) or on a malformed one. A malformed reply is
 *  a retryable failure: re-sending the request converges. */
bool
foldReplyLine(const std::string &line, ReceivedCells *received,
              ServeReply *reply)
{
    std::string kind;
    JsonLineReader fields(line, JsonLineReader::Absent::Fail);
    fields.field("kind", kind);
    if (fields.ok() && kind == "error") {
        // The server tags transient failures retryable; a message-less
        // error line reports itself.
        JsonLineReader error(line, JsonLineReader::Absent::Keep);
        reply->error = line;
        error.field("message", reply->error);
        error.field("retryable", reply->retryable);
        return true;
    }
    size_t number = 0; // a cell's index, or the done line's cell count
    if (kind == "cell") {
        std::string payload;
        fields.field("index", number);
        fields.field("payload", payload);
        if (fields.ok()) {
            received->emplace_back(number, std::move(payload));
            return false;
        }
    } else if (kind == "done") {
        fields.field("cells", number);
    }
    // done / stats / bye all terminate one request's reply.
    reply->ok = fields.ok() && (kind != "done" ||
                                placeCells(*received, number, &reply->cells));
    if (reply->ok) {
        reply->done = line;
    } else {
        reply->error = "malformed reply: " +
                       (fields.ok() ? "the cell indices are not exactly 0.." +
                                          std::to_string(number) + "-1: " + line
                                    : fields.error());
        reply->retryable = true;
    }
    return true;
}

} // namespace

ServeReply
serveRequestLine(const std::string &socketPath, const std::string &line)
{
    ServeReply reply;
    const int fd = connectTo(socketPath, &reply.error);
    if (fd < 0) {
        // The daemon may be restarting or the listen queue full;
        // reconnecting is exactly what a retry does.
        reply.retryable = true;
        return reply;
    }
    if (!sendAll(fd, line + "\n")) {
        reply.error = "cannot send request (errno " +
                      std::to_string(errno) + ")";
        reply.retryable = true;
        ::close(fd);
        return reply;
    }

    std::string buf;
    char chunk[4096];
    ReceivedCells received;
    bool finished = false;
    while (!finished) {
        const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
        if (n <= 0) {
            if (n < 0 && errno == EINTR)
                continue;
            // A truncated stream (the server's send failed, or it
            // severed the socket at the drain budget): every cell
            // already received is in the store server-side, so a
            // retry is cheap.
            reply.error = "connection closed before the reply finished";
            reply.retryable = true;
            break;
        }
        buf.append(chunk, static_cast<size_t>(n));
        size_t nl = 0;
        while (!finished && (nl = buf.find('\n')) != std::string::npos) {
            const std::string replyLine = buf.substr(0, nl);
            buf.erase(0, nl + 1);
            if (!replyLine.empty())
                finished = foldReplyLine(replyLine, &received, &reply);
        }
    }
    ::close(fd);
    return reply;
}

ServeReply
serveRequest(const std::string &socketPath, const RunRequest &req)
{
    return serveRequestLine(socketPath, toJsonLine(req));
}

uint64_t
retryBackoffMs(uint64_t seed, unsigned attempt)
{
    // Seeded jitter (1..8 ms) doubled per attempt, capped: pure
    // function of (seed, attempt), so a chaos run's pacing is as
    // reproducible as its fault plan.
    const uint64_t jitter =
        hashCombine(hashMix(seed), attempt) % 8 + 1;
    const uint64_t ms = jitter << (attempt < 5 ? attempt : 5);
    return ms < 250 ? ms : 250;
}

ServeReply
serveRequestWithRetries(const std::string &socketPath,
                        const RunRequest &req, const RetryPolicy &policy)
{
    ServeReply reply;
    for (unsigned attempt = 0;; ++attempt) {
        reply = serveRequest(socketPath, req);
        reply.attempts = attempt + 1;
        if (reply.ok || !reply.retryable || attempt >= policy.retries)
            return reply;
        std::this_thread::sleep_for(std::chrono::milliseconds(
            retryBackoffMs(policy.seed, attempt)));
    }
}

} // namespace moatsim::sim
