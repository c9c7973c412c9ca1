/**
 * @file
 * The lkmm-serve wire protocol: length-prefixed JSON frames over a
 * unix-domain stream socket.
 *
 * Each frame (base/channel.hh) carries one json::Value document in
 * UTF-8.  Both directions use the same framing.  The server reads
 * with its configured cap and passes its fault-injection site ids,
 * so lkmm-chaos can exercise the torn-read/short-write paths; Client
 * is the connect-request-response convenience wrapper used by the
 * CLI client mode, the tests, the chaos workload and the benchmark.
 */

#ifndef LKMM_SERVE_PROTOCOL_HH
#define LKMM_SERVE_PROTOCOL_HH

#include <chrono>
#include <optional>
#include <string>

#include "base/json.hh"

namespace lkmm::serve
{

/**
 * A blocking request/response client for one daemon connection.
 *
 * Move-only; the destructor closes the socket.  request() sends one
 * JSON document and waits for the reply frame.  With a timeout set,
 * a stalled server surfaces as StatusError(IoError) ("Resource
 * temporarily unavailable") rather than a hang — the chaos
 * workload's no-stuck-client invariant relies on this.
 */
class Client
{
  public:
    /**
     * Connect to the daemon's unix socket.
     *
     * @throws StatusError(InvalidArgument) when the path does not
     *         fit sockaddr_un, StatusError(IoError) when the
     *         connection is refused.
     */
    static Client connect(const std::string &socketPath);

    Client(Client &&other) noexcept;
    Client &operator=(Client &&other) noexcept;
    Client(const Client &) = delete;
    Client &operator=(const Client &) = delete;
    ~Client();

    /** Bound both send and receive on this socket (0 = no timeout). */
    void setTimeout(std::chrono::milliseconds timeout);

    /** Send one request document, wait for and parse the reply. */
    json::Value request(const json::Value &req);

    /** Send a pre-serialized payload (for malformed-input tests). */
    void sendRaw(const std::string &payload);

    /** Receive one raw reply frame; nullopt on clean EOF. */
    std::optional<std::string> receiveRaw();

    void close();
    bool isOpen() const { return fd_ >= 0; }
    int fd() const { return fd_; }

  private:
    explicit Client(int fd) : fd_(fd) {}

    int fd_ = -1;
};

} // namespace lkmm::serve

#endif // LKMM_SERVE_PROTOCOL_HH
