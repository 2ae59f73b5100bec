// Runtime density monitor for the phase-adaptive dispatcher.
//
// The collapsed super-step engine advances ~0.63 sqrt(n) interactions per
// O(|Q|^2) super-step regardless of how many of them are effective; the
// count-batch engine pays O(|Q|) per *effective* interaction and crosses
// runs of nulls in O(1) geometric jumps.  Which engine wins at a given
// moment is therefore governed by one dimensionless signal:
//
//   x = rho * E[L],   rho = W / (n(n-1)),   E[L] ~= sqrt(pi n / 8) ~= 0.6267 sqrt(n),
//
// the expected number of effective interactions inside one collision-free
// run — "how much useful work one super-step amortizes".  E[L] is the mean
// of the survival law in collapsed_simulator.h; each pair of a run touches
// two agents, so it is half the single-agent birthday bound sqrt(pi n / 2).
// Dense transients (x large) favour the collapsed engine; sparse tails
// (x small) favour count-batch.  Both engines already maintain W exactly
// (it is their silence predicate), so evaluating x consumes no extra RNG
// draws and no extra passes over the counts.
//
// EngineSwitchMonitor polls x every n/64 interactions (at least 256) at
// run-loop boundaries and requests a mid-run engine switch through hysteresis
// thresholds (enter_collapsed > exit_collapsed) plus a minimum dwell, so a
// workload hovering near the crossover cannot thrash.  The monitor itself
// is deterministic — pure integer/float arithmetic on counters the loop
// already has — and its three words of mutable state (switch count, last
// switch index, next poll index) ride in the checkpoint's `adaptive`
// section so suspend/resume replays decisions exactly.  Thresholds are not
// checkpointed; the caller re-supplies them like the seed.

#ifndef POPPROTO_CORE_ENGINE_MONITOR_H
#define POPPROTO_CORE_ENGINE_MONITOR_H

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "core/observer.h"
#include "core/require.h"

namespace popproto {

/// Tuning knobs of the phase-adaptive dispatcher (RunOptions::adaptive).
/// Defaults come from bench_adaptive's measured collapsed/count-batch
/// crossover on epidemic workloads at n = 2^20..2^24 (EXPERIMENTS.md).
struct AdaptiveOptions {
    /// Switch count-batch -> collapsed when x >= enter_collapsed.
    double enter_collapsed = 24.0;
    /// Switch collapsed -> count-batch when x <= exit_collapsed.  Must be
    /// < enter_collapsed (the gap is the hysteresis band).
    double exit_collapsed = 6.0;
    /// Minimum interactions between two switches; 0 resolves to four poll
    /// periods (EngineSwitchMonitor::eval_period).
    std::uint64_t min_dwell = 0;

    friend bool operator==(const AdaptiveOptions&, const AdaptiveOptions&) = default;
};

/// The monitor the adaptive dispatcher (adaptive_simulator.h) hands to each
/// engine segment as run_loop's `monitor` argument.  The run-loop kernel
/// polls it at loop-top boundaries; when `consider` books a switch the
/// kernel captures a checkpoint-shaped state transfer and pauses, and the
/// dispatcher resumes it under the other engine.
///
/// The poll period is fixed at n/64 interactions, and at least 256.  The
/// density only evolves over Theta(n) interactions, so ~64 polls per regime
/// timescale detect a crossover with <2% lag — polling faster (say per
/// collapsed super-step, every ~sqrt(n)) buys nothing and its per-poll float
/// arithmetic is measurable against the count-batch engine's O(1)-per-run
/// sparse cost (bench_adaptive's sparse control).
class EngineSwitchMonitor {
public:
    EngineSwitchMonitor(std::uint64_t population, ObservedEngine entry_engine,
                        const AdaptiveOptions& options)
        : enter_(options.enter_collapsed),
          exit_(options.exit_collapsed),
          current_(entry_engine) {
        require(population >= 2, "EngineSwitchMonitor: need at least two agents");
        require(enter_ > exit_ && exit_ >= 0.0,
                "run_simulation: adaptive thresholds must satisfy "
                "enter_collapsed > exit_collapsed >= 0");
        require(entry_engine == ObservedEngine::kCountBatch ||
                    entry_engine == ObservedEngine::kCollapsed,
                "EngineSwitchMonitor: entry engine must be count_batch or collapsed");
        const double n = static_cast<double>(population);
        total_pairs_ = n * (n - 1.0);
        // sqrt(pi / 8) sqrt(n), the mean of the survival law.
        expected_run_length_ = 0.6266570686577502 * std::sqrt(n);
        period_ = std::max<std::uint64_t>(population / 64, 256);
        dwell_ = options.min_dwell != 0 ? options.min_dwell : 4 * period_;
        next_eval_ = period_;

        // Integer images of the float thresholds: the smallest W whose
        // signal clears enter_ and the largest W still at or under exit_.
        // signal() is monotone in W even under float rounding (conversion,
        // division, and multiplication by positive constants all preserve
        // order), so the integer gates decide exactly as the float compares
        // they stand in for — but the common no-switch poll in consider()
        // costs two integer compares instead of a divide and a store
        // (measurable against count-batch's O(1)-per-run sparse cost;
        // bench_adaptive's sparse control).
        const std::uint64_t max_pairs =
            population * (population - 1);  // n < 2^32, so this fits
        enter_pairs_ = threshold_image(enter_, max_pairs, /*at_least=*/true);
        exit_pairs_ = threshold_image(exit_, max_pairs, /*at_least=*/false);
    }

    /// The engine currently executing (flips when consider() fires).
    ObservedEngine current() const { return current_; }

    /// Cheap hot-path gate: is a poll due at this interaction index?
    bool due(std::uint64_t interactions) const { return interactions >= next_eval_; }

    /// x = rho * E[L] for the given effective-pair count W.
    double signal(std::uint64_t effective_pairs) const {
        return (static_cast<double>(effective_pairs) / total_pairs_) * expected_run_length_;
    }

    /// One poll: reschedules the next evaluation and, subject to hysteresis
    /// and dwell, books a switch at `interactions`.  Returns true iff it
    /// switched; the caller (the kernel) then captures the transfer
    /// checkpoint, which carries the post-switch state.
    bool consider(std::uint64_t interactions, std::uint64_t effective_pairs) {
        // Deterministic poll backoff: more than a factor of two from the
        // active threshold, stretch the next poll to 8x the period.  W
        // moves by at most e^(2 * 8/64) ~ 28% over that stretch for
        // epidemic-like dynamics — well short of the 2x margin — so a
        // crossover is still met inside the 1x band; deep inside a regime
        // the monitor all but vanishes from the run (the poll itself is
        // what bench_adaptive's sparse control prices).  A pure function of
        // (W, interactions), so resumed runs replay the same poll schedule
        // from the checkpointed next_eval.
        const bool far = current_ == ObservedEngine::kCollapsed
                             ? effective_pairs / 2 > exit_pairs_
                             : effective_pairs < enter_pairs_ / 2;
        next_eval_ = interactions + (far ? 8 * period_ : period_);
        if (switches_ != 0 && interactions < last_switch_ + dwell_) return false;
        if (current_ == ObservedEngine::kCollapsed) {
            if (effective_pairs > exit_pairs_) return false;
            current_ = ObservedEngine::kCountBatch;
        } else {
            if (effective_pairs < enter_pairs_) return false;
            current_ = ObservedEngine::kCollapsed;
        }
        last_signal_ = signal(effective_pairs);
        ++switches_;
        last_switch_ = interactions;
        return true;
    }

    // Checkpoint plumbing: the serialized `adaptive <switches> <last_switch>
    // <next_eval>` line round-trips through these.
    std::uint64_t switches() const { return switches_; }
    std::uint64_t last_switch() const { return last_switch_; }
    std::uint64_t next_eval() const { return next_eval_; }
    void restore(std::uint64_t switches, std::uint64_t last_switch, std::uint64_t next_eval) {
        switches_ = switches;
        last_switch_ = last_switch;
        next_eval_ = next_eval;
    }

    /// The signal at the poll that booked the last switch (polls that do
    /// not fire skip the float evaluation entirely).
    double last_signal() const { return last_signal_; }
    double enter_collapsed() const { return enter_; }
    double exit_collapsed() const { return exit_; }
    std::uint64_t eval_period() const { return period_; }
    std::uint64_t min_dwell() const { return dwell_; }

private:
    /// The smallest (at_least) or largest (!at_least) W whose signal sits on
    /// `bound`'s firing side, found by nudging the float inverse of signal()
    /// until the exact compare flips; kNeverFires when no representable W
    /// qualifies (e.g. enter_collapsed too high for this population).
    std::uint64_t threshold_image(double bound, std::uint64_t max_pairs,
                                  bool at_least) const {
        const double inverse = bound * total_pairs_ / expected_run_length_;
        std::uint64_t w = inverse <= 0.0 ? 0
                          : inverse >= static_cast<double>(max_pairs)
                              ? max_pairs
                              : static_cast<std::uint64_t>(inverse);
        if (at_least) {
            while (w != 0 && signal(w - 1) >= bound) --w;
            while (w <= max_pairs && signal(w) < bound) ++w;
            return w > max_pairs ? kNeverFires : w;
        }
        while (w != 0 && signal(w) > bound) --w;
        while (w < max_pairs && signal(w + 1) <= bound) ++w;
        if (signal(w) > bound) return 0;  // even W = 0 exceeds the bound
        return w;
    }

    /// Sentinel for an enter gate no population-feasible W can reach
    /// (strictly above every real W, so `effective_pairs < enter_pairs_`
    /// always holds and the gate never fires).
    static constexpr std::uint64_t kNeverFires = ~std::uint64_t{0};

    double enter_;
    double exit_;
    double total_pairs_ = 0.0;
    double expected_run_length_ = 0.0;
    std::uint64_t period_ = 0;
    std::uint64_t dwell_ = 0;
    std::uint64_t enter_pairs_ = 0;
    std::uint64_t exit_pairs_ = 0;

    ObservedEngine current_;
    std::uint64_t switches_ = 0;
    std::uint64_t last_switch_ = 0;
    std::uint64_t next_eval_ = 0;
    double last_signal_ = 0.0;
};

}  // namespace popproto

#endif  // POPPROTO_CORE_ENGINE_MONITOR_H
