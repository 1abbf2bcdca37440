#include "util.hh"

#include <fcntl.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/logging.hh"
#include "sim/result_io.hh"

extern char **environ;

namespace moatbench
{

double
median(std::vector<double> v)
{
    return percentile(std::move(v), 50.0);
}

double
interquartileMean(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t cut = v.size() >= 4 ? v.size() / 4 : 0;
    double sum = 0.0;
    for (size_t i = cut; i < v.size() - cut; ++i)
        sum += v[i];
    return sum / static_cast<double>(v.size() - 2 * cut);
}

double
percentile(std::vector<double> v, double pct)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = pct / 100.0 * static_cast<double>(v.size() - 1);
    const size_t lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

double
tailPercentileFor(size_t n)
{
    if (n < 20)
        return 50.0;
    const double p = 100.0 * (1.0 - 10.0 / static_cast<double>(n));
    return std::min(99.0, p);
}

void
JsonObject::key(const std::string &k)
{
    if (!body_.empty())
        body_ += ",";
    body_ += moatsim::sim::jsonQuote(k) + ":";
}

JsonObject &
JsonObject::num(const std::string &k, double v)
{
    key(k);
    body_ += moatsim::sim::jsonDouble(v);
    return *this;
}

JsonObject &
JsonObject::integer(const std::string &k, uint64_t v)
{
    key(k);
    body_ += std::to_string(v);
    return *this;
}

JsonObject &
JsonObject::str(const std::string &k, const std::string &v)
{
    key(k);
    body_ += moatsim::sim::jsonQuote(v);
    return *this;
}

JsonObject &
JsonObject::raw(const std::string &k, const std::string &json)
{
    key(k);
    body_ += json;
    return *this;
}

std::string
metricJson(double value, const std::string &unit)
{
    return JsonObject().num("value", value).str("unit", unit).text();
}

pid_t
spawnProcess(const std::vector<std::string> &argv,
             const std::string &log_path)
{
    std::vector<char *> args;
    args.reserve(argv.size() + 1);
    for (const auto &a : argv)
        args.push_back(const_cast<char *>(a.c_str()));
    args.push_back(nullptr);

    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    const std::string out = log_path.empty() ? "/dev/null" : log_path;
    posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, out.c_str(),
                                     O_WRONLY | O_CREAT | O_APPEND, 0644);
    posix_spawn_file_actions_adddup2(&actions, STDOUT_FILENO,
                                     STDERR_FILENO);
    pid_t pid = -1;
    const int rc =
        posix_spawn(&pid, args[0], &actions, nullptr, args.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    if (rc != 0)
        moatsim::fatal("cannot spawn " + argv[0] + " (errno " +
                       std::to_string(rc) + ")");
    return pid;
}

int
waitProcess(pid_t pid, double *peak_mib)
{
    int status = 0;
    struct rusage usage{};
    while (::wait4(pid, &status, 0, &usage) < 0) {
        if (errno != EINTR)
            return -1;
    }
    if (peak_mib != nullptr)
        *peak_mib = static_cast<double>(usage.ru_maxrss) / 1024.0;
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

double
peakRssMiB(const std::string &pid)
{
    std::ifstream in("/proc/" + pid + "/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;
    }
    return 0.0;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        moatsim::fatal("cannot read " + path);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

std::vector<std::string>
splitLines(const std::string &text)
{
    std::vector<std::string> out;
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line)) {
        if (!line.empty())
            out.push_back(line);
    }
    return out;
}

void
copyTree(const std::string &from, const std::string &to)
{
    removeTree(to);
    std::filesystem::copy(from, to,
                          std::filesystem::copy_options::recursive);
}

void
removeTree(const std::string &path)
{
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
}

} // namespace moatbench
