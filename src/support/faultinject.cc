#include "support/faultinject.hh"

#include <chrono>
#include <cstdlib>
#include <thread>

#include "support/cancel.hh"
#include "support/hash.hh"
#include "support/logging.hh"

namespace rodinia {
namespace support {

namespace {

// Map a 64-bit digest to [0, 1) using the top 53 bits.
double
unitInterval(uint64_t digest)
{
    return double(digest >> 11) * (1.0 / 9007199254740992.0);
}

std::vector<std::string>
split(const std::string &s, char sep)
{
    std::vector<std::string> out;
    size_t pos = 0;
    for (;;) {
        size_t next = s.find(sep, pos);
        if (next == std::string::npos) {
            out.push_back(s.substr(pos));
            return out;
        }
        out.push_back(s.substr(pos, next - pos));
        pos = next + 1;
    }
}

double
parseProbability(const std::string &key, const std::string &value)
{
    char *end = nullptr;
    double p = std::strtod(value.c_str(), &end);
    if (!end || *end != '\0' || value.empty() || p < 0.0 || p > 1.0)
        fatal("RODINIA_FAULTS: '", key, "=", value,
              "' is not a probability in [0,1]");
    return p;
}

uint64_t
parseCount(const std::string &entry, const std::string &value,
           uint64_t max)
{
    char *end = nullptr;
    unsigned long long v = std::strtoull(value.c_str(), &end, 10);
    if (!end || *end != '\0' || value.empty() || v > max)
        fatal("RODINIA_FAULTS: bad number '", value, "' in '", entry,
              "'");
    return uint64_t(v);
}

const char *
faultOpName(FaultOp op)
{
    switch (op) {
      case FaultOp::Write:
        return "write";
      case FaultOp::Fsync:
        return "fsync";
      case FaultOp::Rename:
        return "rename";
      case FaultOp::Unlink:
        return "unlink";
      case FaultOp::Alloc:
        return "alloc";
    }
    return "?";
}

} // namespace

FaultInjector::FaultInjector(const char *envSpec)
{
    if (envSpec && *envSpec)
        cfg_ = parseSpec(envSpec);
}

FaultInjector &
FaultInjector::instance()
{
    static FaultInjector inj(std::getenv("RODINIA_FAULTS"));
    return inj;
}

FaultInjector::Config
FaultInjector::parseSpec(const std::string &spec)
{
    Config cfg;
    for (const std::string &entry : split(spec, ',')) {
        if (entry.empty())
            continue;
        size_t eq = entry.find('=');
        if (eq == std::string::npos)
            fatal("RODINIA_FAULTS: entry '", entry,
                  "' is not key=value");
        std::string key = entry.substr(0, eq);
        std::string value = entry.substr(eq + 1);
        if (key == "seed") {
            cfg.seed = parseCount(entry, value, ~uint64_t(0));
        } else if (key == "write") {
            cfg.probability[int(FaultOp::Write)] =
                parseProbability(key, value);
        } else if (key == "fsync") {
            cfg.probability[int(FaultOp::Fsync)] =
                parseProbability(key, value);
        } else if (key == "rename") {
            cfg.probability[int(FaultOp::Rename)] =
                parseProbability(key, value);
        } else if (key == "unlink") {
            cfg.probability[int(FaultOp::Unlink)] =
                parseProbability(key, value);
        } else if (key == "alloc") {
            cfg.probability[int(FaultOp::Alloc)] =
                parseProbability(key, value);
        } else if (key == "fail") {
            auto parts = split(value, '@');
            FailRule rule;
            rule.job = parts[0];
            if (rule.job.empty())
                fatal("RODINIA_FAULTS: '", entry,
                      "' is missing a job name");
            for (size_t i = 1; i < parts.size(); ++i) {
                if (parts[i] == "transient")
                    rule.transient = true;
                else if (parts[i] == "permanent")
                    rule.transient = false;
                else
                    rule.attempts = int(
                        parseCount(entry, parts[i], 1000000));
            }
            cfg.fails.push_back(std::move(rule));
        } else if (key == "stall") {
            auto parts = split(value, '@');
            if (parts.size() != 2 || parts[0].empty())
                fatal("RODINIA_FAULTS: '", entry,
                      "' is not stall=SUBSTR@MS");
            StallRule rule;
            rule.substr = parts[0];
            rule.ms = int(parseCount(entry, parts[1], 3600000));
            if (rule.ms <= 0)
                fatal("RODINIA_FAULTS: '", entry,
                      "' needs a positive stall duration");
            cfg.stalls.push_back(std::move(rule));
        } else {
            fatal("RODINIA_FAULTS: unknown key '", key, "'");
        }
    }
    return cfg;
}

void
FaultInjector::configure(const std::string &spec)
{
    Config cfg = spec.empty() ? Config{} : parseSpec(spec);
    std::lock_guard<std::mutex> lock(mu_);
    cfg_ = std::move(cfg);
    occurrences_.clear();
    for (auto &n : nFile_)
        n.store(0);
    nJob_.store(0);
    nStall_.store(0);
}

bool
FaultInjector::enabled() const
{
    std::lock_guard<std::mutex> lock(mu_);
    for (double p : cfg_.probability)
        if (p > 0.0)
            return true;
    return !cfg_.fails.empty() || !cfg_.stalls.empty();
}

bool
FaultInjector::decide(FaultOp op, uint64_t keyHash,
                      uint64_t occurrence, uint64_t seed,
                      double p) const
{
    Fnv1a h;
    h.field(seed)
        .field(uint64_t(op))
        .field(keyHash)
        .field(occurrence);
    return unitInterval(h.digest()) < p;
}

bool
FaultInjector::failFile(FaultOp op, const std::string &key)
{
    uint64_t seed, occurrence;
    double p;
    {
        std::lock_guard<std::mutex> lock(mu_);
        p = cfg_.probability[int(op)];
        if (p <= 0.0)
            return false;
        seed = cfg_.seed;
        occurrence =
            occurrences_[std::string(faultOpName(op)) + ":" + key]++;
    }
    uint64_t keyHash = Fnv1a().field(std::string_view(key)).digest();
    if (!decide(op, keyHash, occurrence, seed, p))
        return false;
    nFile_[int(op)].fetch_add(1);
    return true;
}

void
FaultInjector::maybeFailJob(const std::string &job, int attempt)
{
    bool transient = false;
    bool fire = false;
    {
        std::lock_guard<std::mutex> lock(mu_);
        for (const FailRule &rule : cfg_.fails) {
            if (rule.job != job)
                continue;
            if (rule.attempts > 0 && attempt > rule.attempts)
                continue;
            transient = rule.transient;
            fire = true;
            break;
        }
    }
    if (!fire)
        return;
    nJob_.fetch_add(1);
    throw InjectedFault("injected fault in job '" + job +
                            "' (attempt " + std::to_string(attempt) +
                            ")",
                        transient);
}

void
FaultInjector::maybeStall(const std::string &site)
{
    int ms = 0;
    {
        std::lock_guard<std::mutex> lock(mu_);
        for (const StallRule &rule : cfg_.stalls) {
            if (site.find(rule.substr) != std::string::npos) {
                ms = rule.ms;
                break;
            }
        }
    }
    if (ms <= 0)
        return;
    nStall_.fetch_add(1);
    auto deadline = std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(ms);
    for (;;) {
        checkpointCancellation();
        auto now = std::chrono::steady_clock::now();
        if (now >= deadline)
            return;
        auto slice = std::min<std::chrono::steady_clock::duration>(
            deadline - now, std::chrono::milliseconds(10));
        std::this_thread::sleep_for(slice);
    }
}

uint64_t
FaultInjector::injectedFileFailures(FaultOp op) const
{
    return nFile_[int(op)].load();
}

uint64_t
FaultInjector::injectedJobFailures() const
{
    return nJob_.load();
}

uint64_t
FaultInjector::stallsServed() const
{
    return nStall_.load();
}

bool
FaultInjector::shouldFailAlloc() noexcept
{
    AllocFaultScope::Arm &arm = AllocFaultScope::tls();
    if (!arm.active)
        return false;
    // Inline FNV-1a over fixed-width fields; this path must not
    // allocate (it runs inside operator new).
    uint64_t state = Fnv1a::kOffset;
    auto absorb = [&state](uint64_t v) {
        const auto *p = reinterpret_cast<const unsigned char *>(&v);
        for (size_t i = 0; i < sizeof(v); ++i) {
            state ^= p[i];
            state *= Fnv1a::kPrime;
        }
    };
    absorb(arm.seed);
    absorb(uint64_t(FaultOp::Alloc));
    absorb(arm.siteHash);
    absorb(arm.counter++);
    if (unitInterval(state) >= arm.p)
        return false;
    // instance() was already constructed by the arming scope, so
    // this is a plain atomic bump — still allocation-free.
    instance().nFile_[int(FaultOp::Alloc)].fetch_add(1);
    return true;
}

AllocFaultScope::Arm &
AllocFaultScope::tls()
{
    thread_local Arm arm;
    return arm;
}

AllocFaultScope::AllocFaultScope(const std::string &site)
{
    Arm &arm = tls();
    prev_ = arm;
    Arm next; // inactive unless alloc faults are configured
    FaultInjector &inj = FaultInjector::instance();
    {
        std::lock_guard<std::mutex> lock(inj.mu_);
        double p = inj.cfg_.probability[int(FaultOp::Alloc)];
        if (p > 0.0) {
            next.active = true;
            next.seed = inj.cfg_.seed;
            next.siteHash =
                Fnv1a().field(std::string_view(site)).digest();
            next.counter = 0;
            next.p = p;
        }
    }
    arm = next;
}

AllocFaultScope::~AllocFaultScope()
{
    tls() = prev_;
}

} // namespace support
} // namespace rodinia
