// The interaction-model layer: pair selection as a first-class, swappable
// policy under the run-loop kernel, with its state carried in checkpoints.
//
// The paper's semantics (Sect. 2) is parameterized by *who interacts with
// whom*: the uniform random scheduler of Sect. 6 is one fair scheduler among
// many, and Theorem 7's restricted interaction graphs are another.  Before
// this layer each pairing discipline was a bespoke stepper (uniform pairs in
// simulator.cpp, weighted pairs, graph edges, deterministic round-robin and
// sweep cursors) that duplicated both the selection logic and the
// delta-application bookkeeping.  Now a pairing discipline is an
// InteractionModel — a small value type that proposes one ordered agent pair
// per interaction — and one PairStepper template turns any model into a
// run_loop stepper, so every model inherits silence detection, budgets,
// observers, telemetry, and checkpoint/resume bit-identity from the kernel.
//
// RNG discipline is inherited from the kernel contract: propose_pair is the
// only place a model may draw from the kernel stream, once per interaction in
// loop order.  Models with internal state beyond the RNG (cursors,
// permutations, agent positions) serialize it as a flat word vector into the
// checkpoint's `interaction_model` section; stateless models write nothing,
// which keeps uniform/weighted/graph checkpoints byte-identical to the
// pre-layer format.

#ifndef POPPROTO_CORE_INTERACTION_MODEL_H
#define POPPROTO_CORE_INTERACTION_MODEL_H

#include <concepts>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/configuration.h"
#include "core/feistel.h"
#include "core/require.h"
#include "core/rng.h"
#include "core/run_loop.h"
#include "core/tabulated_protocol.h"

namespace popproto {

/// Ordered agent pair to interact next.
using AgentPair = std::pair<std::size_t, std::size_t>;

/// A pairing discipline.  `propose_pair` returns the next ordered pair of
/// distinct agent indices in [0, states.size()); it may read the current
/// per-agent states (adaptive/adversarial models) and is the only method
/// allowed to draw from the kernel RNG.  Every model is built in and
/// constructs valid pairs by design, so the stepper does not re-check them.
///
/// Traits:
///   * kCanSilence   — whether the model can reach every ordered pair of
///                     *present states*, making the multiset silence test
///                     sound (restricted edge sets must say false);
///   * kHasState     — whether the model carries state beyond the kernel
///                     RNG; iff true, checkpoints record `name()` plus the
///                     `save_state` words and resume calls `restore_state`.
template <typename M>
concept InteractionModel =
    requires(M model, const M cmodel, Rng& rng, const std::vector<State>& states,
             std::vector<std::uint64_t>& words) {
        { M::kCanSilence } -> std::convertible_to<bool>;
        { M::kHasState } -> std::convertible_to<bool>;
        { cmodel.name() } -> std::convertible_to<const char*>;
        { model.propose_pair(rng, states) } -> std::same_as<AgentPair>;
        { cmodel.save_state(words) } -> std::same_as<void>;
        { model.restore_state(std::as_const(words)) } -> std::same_as<void>;
    };

/// The k-th ordered pair of distinct agents in lexicographic order, decoded
/// in O(1): row i lists its n-1 partners 0..n-1 with i itself skipped.
inline AgentPair decode_ordered_pair(std::uint64_t index, std::uint64_t num_agents) {
    const std::uint64_t i = index / (num_agents - 1);
    const std::uint64_t r = index % (num_agents - 1);
    return {static_cast<std::size_t>(i), static_cast<std::size_t>(r < i ? r : r + 1)};
}

// ---------------------------------------------------------------------------
// Built-in models

/// Uniform random pairing over all ordered pairs of distinct agents — the
/// paper's Sect. 6 scheduler, O(1) per interaction (the reference sampler).
class UniformPairModel {
public:
    static constexpr const char* kName = "uniform";
    static constexpr bool kCanSilence = true;
    static constexpr bool kHasState = false;

    const char* name() const { return kName; }

    AgentPair propose_pair(Rng& rng, const std::vector<State>& states) {
        const std::uint64_t n = states.size();
        const std::uint64_t i = rng.below(n);
        std::uint64_t j = rng.below(n - 1);
        if (j >= i) ++j;
        return {static_cast<std::size_t>(i), static_cast<std::size_t>(j)};
    }

    void save_state(std::vector<std::uint64_t>&) const {}
    void restore_state(const std::vector<std::uint64_t>&) {}
};

/// Weighted pairing (Sect. 8): ordered pair (i, j), i != j, with probability
/// proportional to weights[i] * weights[j], via inverse-CDF draws.
class WeightedPairModel {
public:
    static constexpr const char* kName = "weighted";
    static constexpr bool kCanSilence = true;
    static constexpr bool kHasState = false;

    /// Requires every weight positive and finite (validated by the entry
    /// point, re-checked here).
    explicit WeightedPairModel(const std::vector<double>& weights);

    const char* name() const { return kName; }

    AgentPair propose_pair(Rng& rng, const std::vector<State>& states) {
        (void)states;
        const std::size_t i = draw_agent(rng);
        // Rejection is cheap when weights are balanced, but when one weight
        // carries almost all the mass a collision loop could spin for an
        // unbounded number of draws; fall back to the exact exclusion draw.
        std::size_t j = draw_agent(rng);
        for (int attempt = 0; j == i; ++attempt) {
            if (attempt >= 16) {
                j = draw_agent_excluding(rng, i);
                break;
            }
            j = draw_agent(rng);
        }
        return {i, j};
    }

    void save_state(std::vector<std::uint64_t>&) const {}
    void restore_state(const std::vector<std::uint64_t>&) {}

private:
    std::size_t draw_agent(Rng& rng) const;
    std::size_t draw_agent_excluding(Rng& rng, std::size_t exclude) const;

    std::vector<double> weights_;
    std::vector<double> cumulative_;
    double total_weight_ = 0.0;
};

/// Uniform sampling over an explicit directed-edge list (Theorem 7
/// restricted interaction graphs: each edge is an (initiator, responder)
/// pair; InteractionGraph generators add both orientations).  Restricted
/// edge sets cannot reach every pair of present states, so the multiset
/// silence test is unsound: kCanSilence is false and runs stop on output
/// stability or budget.
class EdgeListPairModel {
public:
    static constexpr const char* kName = "graph";
    static constexpr bool kCanSilence = false;
    static constexpr bool kHasState = false;

    /// Requires a non-empty list of ordered pairs of distinct endpoints,
    /// all < num_agents.
    EdgeListPairModel(std::vector<std::pair<std::uint32_t, std::uint32_t>> edges,
                      std::uint64_t num_agents);

    const char* name() const { return kName; }

    AgentPair propose_pair(Rng& rng, const std::vector<State>& states) {
        (void)states;
        const auto& edge = edges_[rng.below(edges_.size())];
        return {edge.first, edge.second};
    }

    void save_state(std::vector<std::uint64_t>&) const {}
    void restore_state(const std::vector<std::uint64_t>&) {}

private:
    std::vector<std::pair<std::uint32_t, std::uint32_t>> edges_;
};

/// Deterministic cycle over all n(n-1) ordered pairs in lexicographic order.
/// Never draws from the kernel RNG; state is the one cursor word.
class RoundRobinPairModel {
public:
    static constexpr const char* kName = "round_robin";
    static constexpr bool kCanSilence = true;
    static constexpr bool kHasState = true;

    explicit RoundRobinPairModel(std::uint64_t num_agents);

    const char* name() const { return kName; }
    std::uint64_t num_pairs() const { return num_pairs_; }

    /// Advances the cursor; no randomness consumed.
    AgentPair next_pair();

    AgentPair propose_pair(Rng&, const std::vector<State>&) { return next_pair(); }

    void save_state(std::vector<std::uint64_t>& words) const;
    void restore_state(const std::vector<std::uint64_t>& words);

private:
    std::uint64_t num_agents_ = 0;
    std::uint64_t num_pairs_ = 0;
    std::uint64_t cursor_ = 0;
};

/// Repeatedly replays one random permutation of all n(n-1) ordered pairs,
/// reshuffled after each full sweep (a "synchronous-ish" pattern common in
/// sensor deployments).  The shuffle uses the model's own seeded RNG, not
/// the kernel stream, so a sweep run's pair sequence depends only on its
/// seed.
///
/// The permutation is *lazy*: a keyed Feistel permutation over the pair
/// indices (core/feistel.h) evaluated on demand, so the model's state is
/// O(1) — the RNG, the cursor, and 8 round keys — instead of the
/// materialized n(n-1)-word array the first implementation shuffled.  At
/// n = 2^16 that array alone was 34 GB; lazily, sweeps run at any
/// population the engines accept.  A reshuffle is a rekey (8 RNG draws).
class SweepPairModel {
public:
    static constexpr const char* kName = "sweep";
    static constexpr bool kCanSilence = true;
    static constexpr bool kHasState = true;

    SweepPairModel(std::uint64_t num_agents, std::uint64_t seed);

    const char* name() const { return kName; }
    std::uint64_t num_pairs() const { return num_pairs_; }

    /// Advances the sweep; rekeys (from the model's own RNG) when a sweep
    /// completes.
    AgentPair next_pair();

    AgentPair propose_pair(Rng&, const std::vector<State>&) { return next_pair(); }

    void save_state(std::vector<std::uint64_t>& words) const;
    void restore_state(const std::vector<std::uint64_t>& words);

private:
    std::uint64_t num_agents_ = 0;
    std::uint64_t num_pairs_ = 0;
    std::uint64_t cursor_ = 0;
    Rng rng_;
    FeistelPermutation permutation_;
};

// ---------------------------------------------------------------------------
// The one stepper over all models

/// The per-agent steppers' exact silence test, kept on the configuration's
/// support.  An effective state pair (one whose interaction changes the
/// multiset) is *enabled* when its agents exist: both states present, or two
/// agents in p for the pair (p, p).  The configuration is silent iff no
/// effective pair is enabled.  Enabledness changes only when a count crosses
/// 0/1/2, so the test counts enabled pairs and updates the count only at
/// those crossings: a step that crosses none pays a few compares, and a
/// state that appears or vanishes pays one masked popcount over |Q|/64 words
/// (its effective partners against the presence mask).  Count-batch keeps
/// the finer W of effective_pairs.h, which its skips need.
class SupportSilenceTest {
public:
    SupportSilenceTest(const TabulatedProtocol& protocol,
                       const std::vector<std::uint64_t>& counts);

    bool silent() const { return enabled_ == 0; }

    /// Books (p, q) -> next; `counts` holds the counts after it.  A caller
    /// may skip a move none of whose four unit moves (two decrements, then
    /// two increments) leaves a count at 2 or below: it crosses no level.
    void update(const std::vector<std::uint64_t>& counts, State p, State q, StatePair next);

    /// Rebuilds the test from a whole count vector (checkpoint restore).
    void reset(const std::vector<std::uint64_t>& counts);

private:
    void touch(State s, std::uint64_t count);

    std::size_t words_;
    /// Row s, words_ long: bit t iff t != s and (s, t) or (t, s) is effective.
    std::vector<std::uint64_t> partners_;
    std::vector<std::uint8_t> self_effective_;  ///< (s, s) is effective
    std::vector<std::uint64_t> present_;        ///< bit s: count[s] >= 1
    std::vector<std::uint8_t> level_;           ///< min(count[s], 2)
    std::uint64_t enabled_ = 0;                 ///< enabled effective pairs
};

/// Turns any InteractionModel into a run_loop stepper: per-agent state array
/// plus multiset counts, one model-proposed ordered pair per step, delta
/// applied via the protocol's fast tables.  `kEngineTag` is the ObservedEngine
/// recorded in events and checkpoints (kAgentArray/kWeighted/kGraph for the
/// classic entry points — full checkpoint backward compatibility — and
/// kPairModel for scenario runs, where the checkpoint's interaction_model
/// section names the concrete model).
///
/// A model that can fall silent (kCanSilence) carries a SupportSilenceTest,
/// so the run halts on its *first* silent configuration; restore rebuilds
/// the test from the agent states.
template <InteractionModel M, ObservedEngine kEngineTag>
class PairStepper {
public:
    static constexpr ObservedEngine kEngine = kEngineTag;
    static constexpr bool kGeometricSkips = false;
    static constexpr bool kSuperSteps = false;

    /// `entry_point` names the caller in error messages ("simulate",
    /// "run_scenario", ...).
    PairStepper(const TabulatedProtocol& protocol, std::vector<State> states, M model,
                const char* entry_point)
        : protocol_(protocol),
          states_(std::move(states)),
          counts_(protocol.num_states(), 0),
          model_(std::move(model)),
          entry_point_(entry_point) {
        for (const State q : states_) ++counts_[q];
        if constexpr (M::kCanSilence) silence_.emplace(protocol_, counts_);
    }

    std::uint64_t population() const { return states_.size(); }

    bool is_silent() const {
        if constexpr (M::kCanSilence) return silence_->silent();
        return false;
    }

    std::uint64_t propose_skip(Rng&) { return 0; }

    StepOutcome step(Rng& rng) {
        const AgentPair pair = model_.propose_pair(rng, states_);
        const State p = states_[pair.first];
        const State q = states_[pair.second];
        const StatePair next = protocol_.apply_fast(p, q);
        StepOutcome outcome;
        if (next.initiator != p || next.responder != q) {
            outcome.changed = true;
            outcome.output_changed =
                protocol_.output_fast(next.initiator) != protocol_.output_fast(p) ||
                protocol_.output_fast(next.responder) != protocol_.output_fast(q);
            states_[pair.first] = next.initiator;
            states_[pair.second] = next.responder;
            // Only a unit move that leaves a count at 2 or below can cross
            // the 0/1/2 levels the silence test tracks.
            bool low = --counts_[p] <= 2;
            low |= --counts_[q] <= 2;
            low |= ++counts_[next.initiator] <= 2;
            low |= ++counts_[next.responder] <= 2;
            if constexpr (M::kCanSilence)
                if (low) silence_->update(counts_, p, q, next);
        }
        return outcome;
    }

    CountConfiguration counts() const { return CountConfiguration::from_state_counts(counts_); }

    const std::vector<State>& states() const { return states_; }
    const M& model() const { return model_; }

    void save(RunCheckpoint& checkpoint) const {
        checkpoint.agent_states = states_;
        if constexpr (M::kHasState) {
            checkpoint.interaction_model = model_.name();
            model_.save_state(checkpoint.model_state);
        }
    }

    /// Every check builds its message only when it fails, so a resume
    /// allocates no more than a fresh run.
    void restore(const RunCheckpoint& checkpoint) {
        if (checkpoint.agent_states.size() != states_.size())
            throw std::invalid_argument(std::string(entry_point_) +
                                        ": checkpoint agent count mismatch");
        states_ = checkpoint.agent_states;
        std::fill(counts_.begin(), counts_.end(), 0);
        for (const State q : states_) {
            if (q >= counts_.size())
                throw std::invalid_argument(std::string(entry_point_) +
                                            ": checkpoint state out of range");
            ++counts_[q];
        }
        if constexpr (M::kCanSilence) silence_->reset(counts_);
        // A stateless model also accepts a checkpoint that names no model.
        if (checkpoint.interaction_model != model_.name() &&
            (M::kHasState || !checkpoint.interaction_model.empty()))
            throw std::invalid_argument(std::string(entry_point_) +
                                        ": checkpoint was taken under interaction model '" +
                                        checkpoint.interaction_model + "', but this run uses '" +
                                        model_.name() + "'");
        if constexpr (M::kHasState) model_.restore_state(checkpoint.model_state);
    }

private:
    const TabulatedProtocol& protocol_;
    std::vector<State> states_;
    std::vector<std::uint64_t> counts_;
    M model_;
    const char* entry_point_;
    // Engaged iff M::kCanSilence (a model that cannot fall silent skips the
    // O(|Q|^2 / 64) masks).
    std::optional<SupportSilenceTest> silence_;
};

}  // namespace popproto

#endif  // POPPROTO_CORE_INTERACTION_MODEL_H
