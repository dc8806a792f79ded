/**
 * @file
 * End-to-end deadline budgets for the request lifecycle.
 *
 * A Deadline is issued when a request enters the system and travels
 * with it: queue wait, batch assembly, shard fan-out, replica routing,
 * retries, and hedges all decrement the same budget. Policies consult
 * `remaining(now)` instead of fixed values — retry/hedge timeouts are
 * clamped to the budget, replicas whose EWMA latency exceeds it are
 * skipped, and an expired budget cancels the in-flight work instead of
 * letting it complete late (the paper's SLA targets make a late answer
 * worthless; see DESIGN.md §13).
 *
 * A zero (or negative) budget disables the deadline: `remaining()` is
 * +infinity and nothing expires, so legacy configurations behave
 * bit-identically.
 */

#ifndef RECPERF_RESILIENCE_DEADLINE_HH
#define RECPERF_RESILIENCE_DEADLINE_HH

#include <string>

namespace recperf {

/** Per-request latency budget anchored at an issue timestamp. */
struct Deadline
{
    /** Virtual time the request entered the system. */
    double startSeconds = 0.0;

    /** Total end-to-end budget; <= 0 disables the deadline. */
    double budgetSeconds = 0.0;

    bool enabled() const { return budgetSeconds > 0.0; }

    /** Absolute expiry instant (meaningless when disabled). */
    double deadlineAt() const { return startSeconds + budgetSeconds; }

    /**
     * Budget left at virtual time @p now, clamped to >= 0 so callers
     * never see a negative timeout; +infinity when disabled.
     */
    double remaining(double now) const;

    /** True once the budget is exhausted (never for a disabled one). */
    bool expired(double now) const
    {
        return enabled() && now >= deadlineAt();
    }

    /**
     * True when the budget left at @p now is below @p estimateSeconds,
     * the p50 of the work still to do: even a median-speed attempt
     * started now would blow the deadline, so give up instead.
     */
    bool cannotCover(double now, double estimateSeconds) const
    {
        return enabled() && remaining(now) < estimateSeconds;
    }

    /**
     * Effective timeout for an attempt issued at @p now: the fixed
     * policy timeout (0 = unbounded) clamped to the remaining budget.
     * Returns +infinity when neither bound applies, so callers can
     * compare `service > clampTimeout(...)` without special-casing.
     */
    double clampTimeout(double fixedTimeoutSeconds, double now) const;
};

/**
 * CLI-grade validation of a deadline budget in seconds: empty string
 * when sane (zero disables), a description of the problem otherwise.
 */
std::string validateDeadlineSeconds(double budgetSeconds);

} // namespace recperf

#endif // RECPERF_RESILIENCE_DEADLINE_HH
