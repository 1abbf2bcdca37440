/**
 * @file
 * `moatsim serve`: sweep-as-a-service over a local socket.
 *
 * A Server listens on an AF_UNIX stream socket and runs sim
 * experiments on behalf of clients. The protocol is line-oriented
 * JSON, and a request is literally a sim::RunRequest line (the same
 * struct the CLI subcommands parse -- sim/run_request.hh), so the
 * socket API has no request grammar of its own:
 *
 *   client -> server, one JSON object per line:
 *     {"kind":"perf",...}       run a perf sweep (RunRequest codec)
 *     {"kind":"coattack",...}   run a co-attack sweep
 *     {"kind":"attack",...}     run one isolated attack cell
 *     {"kind":"stats"}          report store, baseline, admission
 *                               and counter-slab pool counters
 *     {"kind":"shutdown"}       stop accepting and drain
 *
 *   server -> client:
 *     {"kind":"cell","index":N,"payload":"<result JSONL>"}
 *                               one line per finished cell, streamed
 *                               in completion order; index is the
 *                               cell's position in the request's
 *                               workload selection
 *     {"kind":"done","cells":N,"cost":C}
 *                               the request finished
 *     {"kind":"stats",...}      the counters (stats request)
 *     {"kind":"bye"}            shutdown acknowledged
 *     {"kind":"error","message":"...","retryable":true}
 *                               the request failed; the connection
 *                               stays usable. "retryable":true tags
 *                               transient failures (a cell compute
 *                               that threw) where re-sending the same
 *                               request converges -- the result store
 *                               makes already-finished cells free.
 *                               Rejections (validation, protocol)
 *                               carry no retryable tag: re-sending
 *                               the same bytes cannot succeed.
 *
 * Failure containment: the daemon outlives its requests. A failed
 * cell compute (exception or injected fault -- common/fault.hh sites
 * `sweep.compute`, `serve.send`, `serve.recv`, `serve.accept`) fails
 * that one request with a retryable error line; transient accept()
 * errors (EMFILE/ENFILE/ECONNABORTED -- transientAcceptError()) back
 * off boundedly and keep listening, and only stop() or a fatal
 * listener error ends the accept loop. When a reply send fails the
 * connection is closed (the client sees a truncated stream, which is
 * retryable); the request's compute keeps running so its cells still
 * land in the shared stores. Graceful shutdown: stop() half-closes
 * connections (reads only), letting in-flight replies drain -- each
 * bounded by ServeConfig::drainCells -- before the sockets go away.
 *
 * Every connection gets its own thread; the accept loop joins the
 * threads of finished connections, so their stacks do not pile up in
 * a long-lived daemon. All of them share one ExperimentStores -- one
 * TraceStore, one ResultStore, one BaselineCache -- so concurrent
 * clients asking for overlapping cells dedupe down to a single
 * computation per distinct cell (the stores' single-flight futures),
 * and a warm on-disk result store serves repeat sweeps without
 * recomputing anything. Admission control
 * bounds the estimatedCost() of concurrently *running* requests by
 * ServeConfig::maxCost; excess requests queue on a condition
 * variable (a lone request larger than the budget still runs --
 * admission never deadlocks an empty server).
 *
 * The server uses no wall-clock anywhere (the determinism lint bans
 * clocks in src/): every wait is a blocking read, accept, or
 * condition wait -- the accept/retry backoffs are fixed sleeps, never
 * time reads -- and shutdown works by shutting the sockets down,
 * which unblocks all of them.
 */

#ifndef MOATSIM_SIM_SERVE_HH
#define MOATSIM_SIM_SERVE_HH

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "common/mutex.hh"
#include "sim/experiment.hh"
#include "sim/run_request.hh"

namespace moatsim::sim
{

/** Everything a Server needs. */
struct ServeConfig
{
    /** Filesystem path of the AF_UNIX listening socket. */
    std::string socketPath;
    /**
     * Cost budget for concurrently running requests (the unitless
     * estimatedCost() scale); 0 = unlimited. A request that alone
     * exceeds the budget still runs when the server is idle.
     */
    double maxCost = 0.0;
    /** The shared trace store all requests use (server policy). */
    workload::TraceStore::Config traceStore =
        workload::TraceStore::envConfig();
    /** The shared result store all requests fill and hit. */
    ResultStore::Config resultStore = ResultStore::envConfig();
    /** Stop after serving this many run requests; 0 = only on a
     *  shutdown request or stop(). Tests use this to bound a serve
     *  loop without any clock. */
    uint64_t maxRequests = 0;
    /** After stop(), each in-flight request may stream at most this
     *  many more cells before its socket is severed; 0 = drain fully.
     *  Bounds shutdown latency without any clock. */
    uint64_t drainCells = 0;
};

/** Whether an accept() errno is transient resource exhaustion worth
 *  backing off and retrying (vs a fatal listener error). */
bool transientAcceptError(int err);

/** The `moatsim serve` daemon core (socket loop + shared stores). */
class Server
{
  public:
    explicit Server(const ServeConfig &config);
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /** Bind and listen on config().socketPath (replacing a stale
     *  socket file); fatal() on failure. After start() returns,
     *  clients can connect. */
    void start();

    /**
     * Accept connections and serve requests until a shutdown request
     * arrives, stop() is called, or maxRequests run requests have
     * completed; joins every connection thread before returning.
     * Transient accept() failures back off and continue.
     */
    void serveForever() EXCLUDES(mu_);

    /** Request shutdown from any thread: stops the accept loop and
     *  unblocks every connection read; in-flight replies drain
     *  (bounded by config().drainCells). Idempotent. */
    void stop() EXCLUDES(mu_);

    const ServeConfig &config() const { return config_; }

    /** The store shared across all requests (test hook: its computes
     *  counter proves cross-client dedupe). */
    const std::shared_ptr<ResultStore> &resultStore() const
    {
        return stores_.results;
    }

    /** The trace store shared across all requests. */
    const std::shared_ptr<workload::TraceStore> &traceStore() const
    {
        return stores_.traces;
    }

  private:
    void handleConnection(int fd) EXCLUDES(mu_);
    /** Move the threads of finished connections out of threads_, to
     *  be joined once mu_ is released. */
    std::vector<std::thread> takeFinishedThreads() REQUIRES(mu_);
    /** Join every connection thread (once the accept loop is over). */
    void joinConnections() EXCLUDES(mu_);
    /** Serve one request line; false = close the connection. */
    bool handleLine(int fd, const std::string &line) EXCLUDES(mu_);
    /** Run one request; false = the reply could not be delivered and
     *  the connection must close (the client retries on the EOF). */
    bool runOnConnection(int fd, const RunRequest &req) EXCLUDES(mu_);
    /** Block until @p cost fits under the admission budget. */
    void admit(double cost) EXCLUDES(mu_);
    void release(double cost) EXCLUDES(mu_);
    std::string statsLine() EXCLUDES(mu_);

    ServeConfig config_;
    /** Shared across every request; built once in the constructor and
     *  immutable afterwards (the stores synchronize internally). */
    ExperimentStores stores_;
    /** Listening socket; set once by start() before any thread runs. */
    int listen_fd_ = -1;

    mutable Mutex mu_;
    CondVar cv_;
    bool stopping_ GUARDED_BY(mu_) = false;
    double admitted_cost_ GUARDED_BY(mu_) = 0.0;
    uint64_t active_requests_ GUARDED_BY(mu_) = 0;
    uint64_t served_requests_ GUARDED_BY(mu_) = 0;
    /** Transient accept() failures survived (health counter). */
    uint64_t accept_retries_ GUARDED_BY(mu_) = 0;
    /** Requests failed by a throwing cell compute (health counter). */
    uint64_t compute_failures_ GUARDED_BY(mu_) = 0;
    std::vector<int> conn_fds_ GUARDED_BY(mu_);
    std::vector<std::thread> threads_ GUARDED_BY(mu_);
    /** Connection threads (all in threads_) that have finished but
     *  are not yet joined; the accept loop joins them before it
     *  starts the next one. */
    std::vector<std::thread::id> finished_ GUARDED_BY(mu_);
};

/** What one run request produced, reassembled client-side. */
struct ServeReply
{
    /** Whether a done line arrived (false: see error). */
    bool ok = false;
    /** Whether the failure is worth re-sending the same request:
     *  server errors tagged "retryable":true, plus every local
     *  transport failure (connect refused, send failed, connection
     *  closed before the terminal line). */
    bool retryable = false;
    /** Attempts consumed (serveRequestWithRetries(); 1 elsewhere). */
    unsigned attempts = 1;
    /** The server's error message, or the local connect/IO failure. */
    std::string error;
    /** Cell payload JSONL, reordered into request (index) order --
     *  byte-identical to the direct CLI's --jsonl output. Filled only
     *  when the done line's cell count matches indices 0..count-1,
     *  each received once; any other reply is a retryable error. */
    std::vector<std::string> cells;
    /** The raw done line. */
    std::string done;
};

/** Connect, send one run request, and collect the reply. */
ServeReply serveRequest(const std::string &socketPath,
                        const RunRequest &req);

/** As serveRequest() with a raw request line (test hook for protocol
 *  errors; also how `moatsim client` forwards stats/shutdown). */
ServeReply serveRequestLine(const std::string &socketPath,
                            const std::string &line);

/** Client retry policy: how many times to re-send after a retryable
 *  failure, and the seed of the deterministic backoff sequence. */
struct RetryPolicy
{
    /** Re-sends after the first attempt (0 = single shot). */
    unsigned retries = 0;
    /** Backoff sequence seed (retryBackoffMs()). */
    uint64_t seed = 1;
};

/** The backoff before re-send @p attempt (0-based): a deterministic,
 *  seeded, exponentially growing jitter in milliseconds -- a pure
 *  function of (seed, attempt), no clock and no shared RNG, so two
 *  identically seeded clients pace identically. */
uint64_t retryBackoffMs(uint64_t seed, unsigned attempt);

/** As serveRequest(), re-sending on retryable failures (reconnecting
 *  each time) until it succeeds, a failure is not retryable, or the
 *  policy's retries are exhausted. Converges byte-identically to a
 *  clean run: the result store serves every already-finished cell,
 *  so a retry recomputes only what actually failed. */
ServeReply serveRequestWithRetries(const std::string &socketPath,
                                   const RunRequest &req,
                                   const RetryPolicy &policy);

} // namespace moatsim::sim

#endif // MOATSIM_SIM_SERVE_HH
