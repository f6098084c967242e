#include "support/metrics.hh"

#include <cstdio>
#include <functional>
#include <sstream>
#include <thread>
#include <vector>

#include "support/logging.hh"

namespace rodinia {
namespace support {
namespace metrics {

// File-local, like CancelScope's token: keeping the thread_local out
// of the header avoids cross-TU TLS-init-wrapper calls from inline
// code (which gcc+UBSan flag as a null store before first use).
namespace {
thread_local Registry *tlsSink = nullptr;
}

Registry *
currentSinkOverride()
{
    return tlsSink;
}

Registry &
sink()
{
    return tlsSink ? *tlsSink : Registry::global();
}

SinkScope::SinkScope(Registry *r) : prev(tlsSink)
{
    tlsSink = r;
}

SinkScope::~SinkScope()
{
    tlsSink = prev;
}

Registry &
Registry::global()
{
    static Registry instance;
    return instance;
}

Registry::Shard &
Registry::myShard()
{
    // One hash per thread lifetime: the shard choice only has to
    // spread threads out, not follow them around.
    static thread_local size_t idx =
        std::hash<std::thread::id>{}(std::this_thread::get_id()) %
        kShards;
    return shards[idx];
}

Registry::Metric &
Registry::slot(Shard &shard, std::string_view name, Kind kind,
               Stability st)
{
    auto [it, inserted] =
        shard.metrics.try_emplace(std::string(name));
    Metric &m = it->second;
    if (inserted) {
        m.kind = kind;
        m.stability = st;
    } else if (m.kind != kind || m.stability != st) {
        fatal("metric '", std::string(name),
              "' re-registered with a different kind or stability");
    }
    return m;
}

void
Registry::countAdd(std::string_view name, std::string_view label,
                   uint64_t delta, Stability st)
{
    Shard &shard = myShard();
    std::lock_guard<std::mutex> lock(shard.mu);
    slot(shard, name, Kind::Counter, st).values[std::string(label)] +=
        delta;
}

void
Registry::gaugeMax(std::string_view name, std::string_view label,
                   uint64_t value, Stability st)
{
    Shard &shard = myShard();
    std::lock_guard<std::mutex> lock(shard.mu);
    uint64_t &v =
        slot(shard, name, Kind::Gauge, st).values[std::string(label)];
    if (value > v)
        v = value;
}

void
Registry::observe(std::string_view name, std::string_view label,
                  uint64_t value, Stability st)
{
    Shard &shard = myShard();
    std::lock_guard<std::mutex> lock(shard.mu);
    slot(shard, name, Kind::Histogram, st)
        .hists[std::string(label)]
        .observe(value);
}

Snapshot
Registry::snapshot() const
{
    Snapshot snap;
    for (const Shard &shard : shards) {
        std::lock_guard<std::mutex> lock(shard.mu);
        for (const auto &[name, m] : shard.metrics) {
            auto [it, inserted] = snap.metrics.try_emplace(name);
            MetricSnapshot &out = it->second;
            if (inserted) {
                out.kind = m.kind;
                out.stability = m.stability;
            } else if (out.kind != m.kind ||
                       out.stability != m.stability) {
                fatal("metric '", name,
                      "' has conflicting kind/stability across "
                      "shards");
            }
            for (const auto &[label, v] : m.values) {
                if (m.kind == Kind::Gauge) {
                    uint64_t &dst = out.values[label];
                    if (v > dst)
                        dst = v;
                } else {
                    out.values[label] += v;
                }
            }
            for (const auto &[label, h] : m.hists)
                out.histograms[label].merge(h);
        }
    }
    return snap;
}

void
Registry::drainInto(Registry &dst)
{
    for (Shard &shard : shards) {
        std::map<std::string, Metric> taken;
        {
            std::lock_guard<std::mutex> lock(shard.mu);
            taken.swap(shard.metrics);
        }
        for (const auto &[name, m] : taken) {
            for (const auto &[label, v] : m.values) {
                if (m.kind == Kind::Gauge)
                    dst.gaugeMax(name, label, v, m.stability);
                else
                    dst.countAdd(name, label, v, m.stability);
            }
            for (const auto &[label, h] : m.hists) {
                Shard &dshard = dst.myShard();
                std::lock_guard<std::mutex> lock(dshard.mu);
                slot(dshard, name, Kind::Histogram, m.stability)
                    .hists[label]
                    .merge(h);
            }
        }
    }
}

const MetricSnapshot *
Snapshot::find(std::string_view name) const
{
    auto it = metrics.find(std::string(name));
    return it == metrics.end() ? nullptr : &it->second;
}

uint64_t
Snapshot::value(std::string_view name, std::string_view label) const
{
    const MetricSnapshot *m = find(name);
    if (!m)
        return 0;
    auto it = m->values.find(std::string(label));
    return it == m->values.end() ? 0 : it->second;
}

std::string
jsonEscape(std::string_view s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
        case '"':
            out += "\\\"";
            break;
        case '\\':
            out += "\\\\";
            break;
        case '\n':
            out += "\\n";
            break;
        case '\t':
            out += "\\t";
            break;
        case '\r':
            out += "\\r";
            break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              unsigned(c));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

namespace {

/** Tree node for nesting metric names on '.'. */
struct Node
{
    std::map<std::string, Node> kids;
    const MetricSnapshot *leaf = nullptr;
};

void
insertMetric(Node &root, const std::string &name,
             const MetricSnapshot &m)
{
    Node *node = &root;
    size_t at = 0;
    while (at <= name.size()) {
        size_t dot = name.find('.', at);
        std::string seg = dot == std::string::npos
                              ? name.substr(at)
                              : name.substr(at, dot - at);
        node = &node->kids[seg];
        if (dot == std::string::npos)
            break;
        at = dot + 1;
    }
    if (node->leaf || !node->kids.empty())
        fatal("metric name '", name,
              "' collides with another metric's name path");
    node->leaf = &m;
}

void
renderHistogram(std::ostringstream &os, const HistogramData &h,
                const std::string &pad)
{
    os << "{\n";
    os << pad << "  \"count\": " << h.count << ",\n";
    os << pad << "  \"sum\": " << h.sum << ",\n";
    os << pad << "  \"min\": " << (h.count ? h.min : 0) << ",\n";
    os << pad << "  \"max\": " << h.max << ",\n";
    os << pad << "  \"buckets\": {";
    bool first = true;
    for (size_t i = 0; i < HistogramData::kBuckets; ++i) {
        if (!h.buckets[i])
            continue;
        os << (first ? "" : ",") << "\n"
           << pad << "    \""
           << HistogramData::bucketLowerBound(i)
           << "\": " << h.buckets[i];
        first = false;
    }
    if (!first)
        os << "\n" << pad << "  ";
    os << "}\n" << pad << "}";
}

void
renderLeaf(std::ostringstream &os, const MetricSnapshot &m,
           const std::string &pad)
{
    bool singleUnlabeled =
        m.kind != Kind::Histogram
            ? (m.values.size() == 1 && m.values.begin()->first == "")
            : (m.histograms.size() == 1 &&
               m.histograms.begin()->first == "");
    if (m.kind != Kind::Histogram) {
        if (singleUnlabeled) {
            os << m.values.begin()->second;
            return;
        }
        os << "{";
        bool first = true;
        for (const auto &[label, v] : m.values) {
            os << (first ? "" : ",") << "\n"
               << pad << "  \"" << jsonEscape(label) << "\": " << v;
            first = false;
        }
        os << "\n" << pad << "}";
        return;
    }
    if (singleUnlabeled) {
        renderHistogram(os, m.histograms.begin()->second, pad);
        return;
    }
    os << "{";
    bool first = true;
    for (const auto &[label, h] : m.histograms) {
        os << (first ? "" : ",") << "\n"
           << pad << "  \"" << jsonEscape(label) << "\": ";
        renderHistogram(os, h, pad + "  ");
        first = false;
    }
    os << "\n" << pad << "}";
}

void
renderNode(std::ostringstream &os, const Node &node,
           const std::string &pad)
{
    if (node.leaf) {
        renderLeaf(os, *node.leaf, pad);
        return;
    }
    os << "{";
    bool first = true;
    for (const auto &[seg, kid] : node.kids) {
        os << (first ? "" : ",") << "\n"
           << pad << "  \"" << jsonEscape(seg) << "\": ";
        renderNode(os, kid, pad + "  ");
        first = false;
    }
    if (!first)
        os << "\n" << pad;
    os << "}";
}

} // namespace

std::string
Snapshot::renderJson() const
{
    // Two independent trees so the Stable section is a prefix of
    // the document — the determinism tests truncate at "volatile".
    Node stable, vol;
    for (const auto &[name, m] : metrics)
        insertMetric(m.stability == Stability::Stable ? stable : vol,
                     name, m);
    std::ostringstream os;
    os << "{\n  \"schema\": 1,\n  \"stable\": ";
    renderNode(os, stable, "  ");
    os << ",\n  \"volatile\": ";
    renderNode(os, vol, "  ");
    os << "\n}\n";
    return os.str();
}

} // namespace metrics
} // namespace support
} // namespace rodinia
