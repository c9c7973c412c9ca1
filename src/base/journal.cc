#include "base/journal.hh"

#include <atomic>
#include <cerrno>
#include <cstring>
#include <fstream>

#include <fcntl.h>
#include <unistd.h>

#include "base/faultinject.hh"
#include "base/status.hh"
#include "base/strutil.hh"

namespace lkmm::journal
{

namespace
{

std::atomic<bool> g_crc_checks_disabled{false};

[[noreturn]] void
ioError(const std::string &what, const std::string &path)
{
    throw StatusError(Status(
        StatusCode::IoError,
        what + " '" + path + "': " + std::strerror(errno)));
}

struct Crc32Table
{
    std::uint32_t entries[256];

    Crc32Table()
    {
        for (std::uint32_t i = 0; i < 256; ++i) {
            std::uint32_t c = i;
            for (int k = 0; k < 8; ++k)
                c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
            entries[i] = c;
        }
    }
};

/**
 * fsync the directory containing path so the file's directory entry
 * itself survives power loss (a file created and fdatasync'd but
 * whose directory was never synced can vanish entirely).
 */
void
syncParentDir(const std::string &path)
{
    faultinject::checkSite(faultinject::site::kJournalDirSync,
                           path.c_str());
    const std::size_t slash = path.find_last_of('/');
    const std::string dir =
        slash == std::string::npos ? "." : path.substr(0, slash + 1);
    const int dirFd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY |
                                              O_CLOEXEC);
    if (dirFd < 0)
        ioError("cannot open journal directory", dir);
    if (::fsync(dirFd) != 0) {
        const int saved = errno;
        ::close(dirFd);
        errno = saved;
        ioError("cannot fsync journal directory", dir);
    }
    ::close(dirFd);
}

} // namespace

std::uint32_t
crc32(const std::string &data)
{
    static const Crc32Table table;
    std::uint32_t c = 0xffffffffu;
    for (unsigned char byte : data)
        c = table.entries[(c ^ byte) & 0xff] ^ (c >> 8);
    return c ^ 0xffffffffu;
}

std::string
encodeLine(const json::Value &record)
{
    return encodeLine(record.serialize());
}

std::string
encodeLine(const std::string &payload)
{
    // The canonical serialization of {"crc":C,"data":D} ("crc" sorts
    // first), spelled out so the payload is not parsed or copied
    // into a wrapper Value; the checksum the reader recomputes from
    // its re-serialized data matches the one stored here.
    std::string line;
    line.reserve(payload.size() + 30);
    line += "{\"crc\":\"";
    line += format("%08x", crc32(payload));
    line += "\",\"data\":";
    line += payload;
    line += "}\n";
    return line;
}

std::optional<json::Value>
decodeLine(const std::string &line)
{
    json::Value wrapper;
    try {
        wrapper = json::Value::parse(line);
    } catch (const std::exception &) {
        return std::nullopt;
    }
    const json::Value *data = wrapper.get("data");
    if (!data)
        return std::nullopt;
    if (!g_crc_checks_disabled.load(std::memory_order_relaxed) &&
        wrapper.getString("crc") != format("%08x", crc32(data->serialize()))) {
        return std::nullopt;
    }
    return *data;
}

RecoverResult
recover(const std::string &path)
{
    faultinject::checkSite(faultinject::site::kJournalRecover,
                           path.c_str());
    std::ifstream in(path, std::ios::binary);
    if (!in.is_open()) {
        // Missing file == empty journal; any other failure mode
        // (EACCES, EISDIR) also lands here but surfaces on the
        // Writer open, which reports errno.
        return RecoverResult{};
    }
    return recoverBytes(std::string(std::istreambuf_iterator<char>(in),
                                    std::istreambuf_iterator<char>()));
}

RecoverResult
recoverBytes(const std::string &content)
{
    RecoverResult result;
    std::uint64_t offset = 0;
    while (offset < content.size()) {
        const std::size_t nl = content.find('\n', offset);
        if (nl == std::string::npos)
            break; // torn tail: no terminating newline
        std::optional<json::Value> rec =
            decodeLine(content.substr(offset, nl - offset));
        if (!rec)
            break; // corrupt line: stop trusting the file here
        result.records.push_back(std::move(*rec));
        offset = nl + 1;
    }
    result.validBytes = offset;
    result.droppedTail = offset < content.size();
    return result;
}

Writer
Writer::create(const std::string &path, Durability durability)
{
    faultinject::checkSite(faultinject::site::kJournalCreate,
                           path.c_str());
    int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                    0644);
    if (fd < 0)
        ioError("cannot create journal", path);
    if (durability == Durability::Fsync) {
        try {
            syncParentDir(path);
        } catch (...) {
            ::close(fd);
            throw;
        }
    }
    return Writer(fd, durability);
}

Writer
Writer::append(const std::string &path, std::uint64_t validBytes,
               Durability durability)
{
    faultinject::checkSite(faultinject::site::kJournalReopen,
                           path.c_str());
    int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_CLOEXEC, 0644);
    if (fd < 0)
        ioError("cannot open journal", path);
    faultinject::checkSite(faultinject::site::kJournalTruncate,
                           path.c_str());
    if (::ftruncate(fd, static_cast<off_t>(validBytes)) != 0 ||
        ::lseek(fd, 0, SEEK_END) < 0) {
        int saved = errno;
        ::close(fd);
        errno = saved;
        ioError("cannot truncate journal", path);
    }
    if (durability == Durability::Fsync) {
        try {
            syncParentDir(path);
        } catch (...) {
            ::close(fd);
            throw;
        }
    }
    return Writer(fd, durability);
}

Writer::Writer(Writer &&other) noexcept
    : fd_(other.fd_), durability_(other.durability_)
{
    other.fd_ = -1;
}

Writer &
Writer::operator=(Writer &&other) noexcept
{
    if (this != &other) {
        close();
        fd_ = other.fd_;
        durability_ = other.durability_;
        other.fd_ = -1;
    }
    return *this;
}

Writer::~Writer()
{
    close();
}

std::size_t
Writer::append(const json::Value &record)
{
    return appendLine(encodeLine(record));
}

std::size_t
Writer::appendLine(const std::string &line)
{
    if (fd_ < 0) {
        throw StatusError(Status(StatusCode::Internal,
                                 "append on a closed journal writer"));
    }
    // The torn-write fault: persist a prefix of the record for real,
    // then fail as if the process had died mid-write.  Error, crash,
    // hang and ENOMEM plans on this site fire here too.
    if (std::optional<std::uint32_t> torn = faultinject::checkTornWrite(
            faultinject::site::kJournalWrite)) {
        const std::size_t prefix =
            std::min<std::size_t>(*torn, line.size());
        std::size_t written = 0;
        while (written < prefix) {
            ssize_t n = ::write(fd_, line.data() + written,
                                prefix - written);
            if (n < 0) {
                if (errno == EINTR)
                    continue;
                break;
            }
            written += static_cast<std::size_t>(n);
        }
        throw StatusError(Status(
            StatusCode::IoError,
            format("injected fault (torn-write) at journal-write: "
                   "%zu of %zu bytes persisted",
                   written, line.size())));
    }
    std::size_t written = 0;
    while (written < line.size()) {
        ssize_t n = ::write(fd_, line.data() + written,
                            line.size() - written);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            ioError("journal write failed", "");
        }
        written += static_cast<std::size_t>(n);
    }
    if (durability_ == Durability::Fsync) {
        faultinject::checkSite(faultinject::site::kJournalSync);
        if (::fdatasync(fd_) != 0)
            ioError("journal fdatasync failed", "");
    }
    return line.size();
}

void
Writer::sync()
{
    faultinject::checkSite(faultinject::site::kJournalSync);
    if (fd_ >= 0)
        ::fdatasync(fd_);
}

void
Writer::close()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

namespace testing
{

void
setCrcChecksDisabled(bool disabled)
{
    g_crc_checks_disabled.store(disabled, std::memory_order_relaxed);
}

bool
crcChecksDisabled()
{
    return g_crc_checks_disabled.load(std::memory_order_relaxed);
}

} // namespace testing

} // namespace lkmm::journal
