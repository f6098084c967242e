/**
 * @file
 * Admission control and per-client fairness for the experiment
 * service.
 *
 * The daemon sits many clients in front of one warm Context and one
 * Executor, so the scarce resources are (a) queue slots and (b) cold
 * simulation workers. Admission control keeps one greedy or broken
 * client from consuming either:
 *
 *  - Two priority lanes. Requests whose results are already warm
 *    (figure cache, gpuStats memo, or a published store entry) go to
 *    the warm lane, served by its own worker(s); everything else is
 *    cold. A cold-sim flood therefore queues behind other cold work
 *    only — warm hits never wait on a simulation.
 *
 *  - Bounded queues. Each lane's queue has a hard depth cap; a
 *    request that would exceed it is REJECTED(overload) immediately
 *    (fail-fast backpressure) instead of growing an unbounded
 *    backlog whose tail latency nobody can meet.
 *
 *  - Per-client in-flight quotas. A client may have at most N
 *    requests admitted-but-unfinished across both lanes; excess
 *    earns REJECTED(quota). This is what makes the queue cap fair:
 *    without it, one client could legally fill every slot.
 *
 *  - Weighted fair queueing WITHIN each lane (WfqQueue below). The
 *    old FIFO lane queues served admitted requests in arrival
 *    order, so a client that managed to enqueue a deep backlog
 *    still monopolized the workers until it drained. Each lane's
 *    queue is now per-client deficit round-robin: every client owns
 *    its own sub-queue, rounds visit backlogged clients in order,
 *    and a client is served up to `weight` items per round — so
 *    under saturation the served-work ratio between two backlogged
 *    clients converges to their weight ratio, and a weight-1 client
 *    is structurally guaranteed at least one item per round no
 *    matter how heavy the competing flood.
 *    Weights arrive via the protocol's "hello" op, clamped to
 *    AdmissionPolicy::maxWeight.
 *
 * Every verdict is counted per client and surfaced through the
 * metrics registry (service.admitted / service.rejected, labeled by
 * client and lane) and the controller's own accounting snapshot,
 * which the /stats request type reports.
 */

#ifndef RODINIA_SERVICE_ADMISSION_HH
#define RODINIA_SERVICE_ADMISSION_HH

#include <algorithm>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace rodinia {
namespace service {

enum class Lane { Warm, Cold };

const char *laneName(Lane lane);

/** Tunable limits (defaults sized for a handful of clients). */
struct AdmissionPolicy
{
    size_t maxColdQueue = 64;  //!< queued-but-unstarted cold requests
    size_t maxWarmQueue = 256; //!< warm hits are cheap; deeper cap
    size_t perClientInFlight = 16; //!< admitted and not yet finished
    uint32_t maxWeight = 64;   //!< WFQ weight ceiling ("hello" clamp)
};

/** Outcome of one admission decision. */
enum class Verdict { Admit, RejectOverload, RejectQuota };

class AdmissionController
{
  public:
    explicit AdmissionController(const AdmissionPolicy &policy);

    /**
     * Decide one request. Admit reserves a queue slot in @p lane and
     * one in-flight unit for @p client, released by finish() — the
     * caller must guarantee exactly one finish() per Admit however
     * the request ends (served, errored, cancelled, connection
     * dropped).
     */
    Verdict admit(const std::string &client, Lane lane);

    /** The request left its queue — began executing, or was dropped
     *  (cancelled, connection gone) before starting. Either way the
     *  lane's queue slot frees up. */
    void started(Lane lane);

    /** The request finished (any outcome). */
    void finish(const std::string &client, Lane lane, bool served);

    size_t queueDepth(Lane lane) const;

    /** Accounting for one client, reported by /stats. */
    struct ClientStats
    {
        uint64_t admitted = 0;
        uint64_t rejectedOverload = 0;
        uint64_t rejectedQuota = 0;
        uint64_t served = 0; //!< finished successfully
        uint64_t failed = 0; //!< finished any other way
        uint64_t inFlight = 0;
    };

    /** Per-client accounting, keyed by client id (sorted). */
    std::map<std::string, ClientStats> snapshot() const;

    const AdmissionPolicy &policy() const { return policy_; }

  private:
    AdmissionPolicy policy_;
    mutable std::mutex mu_;
    size_t queued_[2] = {0, 0};  //!< per-lane queued (not started)
    std::map<std::string, ClientStats> clients_;
};

/**
 * Deficit-round-robin weighted fair queue: one per lane.
 *
 * Each client owns a FIFO sub-queue. Backlogged clients form a round
 * (joined at the tail, so a newcomer never barges mid-round). When a
 * client reaches the round's front it is granted `weight` credits;
 * pop() serves its items one per call until the credit runs out or
 * its sub-queue drains, then rotates it to the tail (credit left
 * over when the queue drains is forfeited — classic DRR, so an idle
 * client cannot bank service). With every client backlogged and
 * unit-cost items, one full round serves exactly `weight` items per
 * client — the fairness property the Wfq tests pin.
 *
 * Not internally synchronized: the server calls every method under
 * its queue mutex, and the property tests are single-threaded.
 */
template <typename T>
class WfqQueue
{
  public:
    /** Set (or pre-declare) a client's weight; persists across idle
     *  periods. Takes effect the next time the client reaches the
     *  round front. Clamped to >= 1. */
    void setWeight(const std::string &client, uint32_t weight)
    {
        clients_[client].weight = std::max<uint32_t>(1, weight);
    }

    uint32_t weight(const std::string &client) const
    {
        auto it = clients_.find(client);
        return it == clients_.end() ? 1 : it->second.weight;
    }

    void push(const std::string &client, T item)
    {
        PerClient &pc = clients_[client];
        if (!pc.inRound) {
            pc.inRound = true;
            pc.fresh = true;
            pc.credit = 0;
            round_.push_back(client);
        }
        pc.items.push_back(std::move(item));
        ++size_;
    }

    /**
     * Serve one item under DRR order. Returns false when every
     * sub-queue is empty. @p client (optional) receives the served
     * client's id.
     */
    bool pop(T &out, std::string *client = nullptr)
    {
        while (!round_.empty()) {
            const std::string &front = round_.front();
            PerClient &pc = clients_[front];
            if (pc.fresh) {
                pc.credit += pc.weight;
                pc.fresh = false;
            }
            if (pc.credit >= 1 && !pc.items.empty()) {
                out = std::move(pc.items.front());
                pc.items.pop_front();
                pc.credit -= 1;
                --size_;
                if (client)
                    *client = front;
                if (pc.items.empty()) {
                    pc.inRound = false;
                    pc.credit = 0; // forfeit: no banking while idle
                    round_.pop_front();
                }
                return true;
            }
            // Credit exhausted: rotate to the round's tail and grant
            // a fresh allotment when it comes around again.
            pc.fresh = true;
            round_.push_back(front);
            round_.pop_front();
        }
        return false;
    }

    size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

  private:
    struct PerClient
    {
        std::deque<T> items;
        uint32_t weight = 1;
        uint64_t credit = 0;
        bool inRound = false;
        bool fresh = true; //!< grant credit on next round-front visit
    };

    std::map<std::string, PerClient> clients_;
    std::deque<std::string> round_; //!< backlogged clients, RR order
    size_t size_ = 0;
};

} // namespace service
} // namespace rodinia

#endif // RODINIA_SERVICE_ADMISSION_HH
