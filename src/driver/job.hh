/**
 * @file
 * Experiment job graph.
 *
 * A Job is one unit of experiment work — a CPU characterization, a
 * GPU launch-sequence recording, a timing sweep, or the assembly of
 * a figure's text — expressed as a closure plus explicit
 * dependencies on earlier jobs. The JobGraph owns the jobs and the
 * dependency edges; driver::Executor schedules ready jobs across a
 * work-stealing thread pool and records per-job status and
 * wall-clock time back into the graph.
 *
 * Dependencies refer to already-added jobs (by the id returned from
 * add()), so a graph is acyclic by construction.
 */

#ifndef RODINIA_DRIVER_JOB_HH
#define RODINIA_DRIVER_JOB_HH

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

namespace rodinia {
namespace driver {

/** Lifecycle of one job. */
enum class JobStatus {
    Pending, //!< waiting on dependencies
    Running, //!< executing on a pool thread
    Done,    //!< finished successfully
    Failed,  //!< the work function threw
    Skipped, //!< not run because a (transitive) dependency failed
};

/** Human-readable status tag ("done", "failed", ...). */
const char *jobStatusName(JobStatus status);

/**
 * Why a job failed. The class drives two policies: whether the
 * executor retries (transient classes: store IO, allocation
 * pressure, injected-transient), and how a missing figure cell is
 * rendered by `experiments --keep-going` (MISSING(<class>)).
 */
enum class ErrorClass {
    None,     //!< job did not fail
    Injected, //!< fault-injection harness (support::InjectedFault)
    StoreIo,  //!< result-store / filesystem IO (transient)
    Deadline, //!< cancelled by the watchdog (support::CancelledError)
    Oom,      //!< allocation failure (std::bad_alloc, transient)
    Workload, //!< the experiment body threw (permanent)
    Skipped,  //!< not run; a dependency failed
    Unknown,  //!< non-std::exception throw
};

/** Human-readable class tag ("injected", "store-io", ...). */
const char *errorClassName(ErrorClass cls);

/** One schedulable unit of experiment work. */
struct Job
{
    std::string name;            //!< display name, e.g. "cpu:kmeans"
    std::function<void()> work;  //!< the experiment body
    std::vector<size_t> deps;    //!< ids of jobs that must finish first

    // Scheduling policy (set by the graph author before run()).
    double softDeadlineMs = 0.0; //!< watchdog deadline per attempt;
                                 //!< <= 0 disables

    // Filled in by the executor.
    JobStatus status = JobStatus::Pending;
    double wallMs = 0.0;         //!< execution wall-clock time
    std::string error;           //!< exception message when Failed
    ErrorClass errorClass = ErrorClass::None;
    int attempts = 0;            //!< attempts actually made
};

/**
 * An append-only DAG of jobs. Build the graph single-threaded, then
 * hand it to Executor::run(); the executor mutates job status
 * fields, so a graph describes exactly one run.
 */
class JobGraph
{
  public:
    /**
     * Add a job. Dependency ids must come from earlier add() calls
     * (checked; violations are fatal), which keeps the graph
     * trivially acyclic.
     *
     * @return the new job's id
     */
    size_t add(std::string name, std::function<void()> work,
               std::vector<size_t> deps = {});

    size_t size() const { return jobs_.size(); }
    bool empty() const { return jobs_.empty(); }

    Job &job(size_t id) { return jobs_.at(id); }
    const Job &job(size_t id) const { return jobs_.at(id); }

    std::vector<Job> &jobs() { return jobs_; }
    const std::vector<Job> &jobs() const { return jobs_; }

    /** True once every job is Done. */
    bool allDone() const;

    /** Total wall-clock milliseconds across all executed jobs. */
    double totalWorkMs() const;

  private:
    std::vector<Job> jobs_;
};

} // namespace driver
} // namespace rodinia

#endif // RODINIA_DRIVER_JOB_HH
