// Randomized property tests.
//
// Two families:
//   * random small protocols: the analyzer's verdict must match a
//     brute-force implementation of the definitions (output-stability by
//     direct reachability, convergence by Lemma 1), the simulator must
//     agree with the multiset semantics step by step, the count engines'
//     effective-pair bookkeeping must match a rebuild, and the agent
//     engines' support-level silence test must match the multiset test;
//   * random Presburger formulas: compile and check against the evaluator
//     on every small input (an end-to-end compiler fuzz), and mutated
//     formula texts: each must compile or be refused by name.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cctype>
#include <deque>
#include <exception>
#include <string>
#include <utility>

#include "analysis/stable_computation.h"
#include "core/effective_pairs.h"
#include "core/interaction_model.h"
#include "core/rng.h"
#include "core/protocol_io.h"
#include "core/simulator.h"
#include "presburger/compiler.h"
#include "presburger/parser.h"
#include "test_util.h"

namespace popproto {
namespace {

std::unique_ptr<TabulatedProtocol> random_protocol(Rng& rng, std::size_t num_states) {
    TabulatedProtocol::Tables tables;
    tables.num_output_symbols = 2;
    tables.initial = {static_cast<State>(rng.below(num_states)),
                      static_cast<State>(rng.below(num_states))};
    tables.output.resize(num_states);
    for (State q = 0; q < num_states; ++q) tables.output[q] = static_cast<Symbol>(rng.below(2));
    tables.delta.resize(num_states * num_states);
    for (std::size_t i = 0; i < tables.delta.size(); ++i) {
        // Bias toward null interactions so random protocols are not pure noise.
        if (rng.below(3) == 0) {
            tables.delta[i] = {static_cast<State>(rng.below(num_states)),
                               static_cast<State>(rng.below(num_states))};
        } else {
            tables.delta[i] = {static_cast<State>(i / num_states),
                               static_cast<State>(i % num_states)};
        }
    }
    return std::make_unique<TabulatedProtocol>(std::move(tables));
}

/// Brute-force convergence check straight from the definitions: a protocol
/// always converges from `initial` iff from every reachable configuration an
/// output-stable configuration remains reachable AND every *final* behavior
/// is captured...  Implemented via Lemma 1 semantics computed naively:
/// for every reachable C, compute its reachable set; C is output-stable iff
/// all configurations reachable from C share C's signature.  Every fair
/// computation converges iff for every reachable C whose reachable set
/// contains no way out (i.e. C lies in a final SCC computed naively), the
/// signatures in C's SCC are uniform.
bool brute_force_always_converges(const TabulatedProtocol& protocol,
                                  const ConfigurationGraph& graph) {
    const std::size_t n = graph.size();
    // reach[i] = set of configs reachable from i (including i).
    std::vector<std::vector<bool>> reach(n, std::vector<bool>(n, false));
    for (ConfigId start = 0; start < n; ++start) {
        std::deque<ConfigId> queue{start};
        reach[start][start] = true;
        while (!queue.empty()) {
            const ConfigId v = queue.front();
            queue.pop_front();
            for (ConfigId w : graph.successors[v]) {
                if (!reach[start][w]) {
                    reach[start][w] = true;
                    queue.push_back(w);
                }
            }
        }
    }
    // C and D are in the same SCC iff they reach each other; C's SCC is
    // final iff everything reachable from C reaches C back.
    for (ConfigId c = 0; c < n; ++c) {
        bool is_final = true;
        for (ConfigId d = 0; d < n; ++d)
            if (reach[c][d] && !reach[d][c]) is_final = false;
        if (!is_final) continue;
        const auto signature = graph.configs[c].output_counts(protocol);
        for (ConfigId d = 0; d < n; ++d) {
            if (reach[c][d] && graph.configs[d].output_counts(protocol) != signature)
                return false;  // a fair run trapped here oscillates outputs
        }
    }
    return true;
}

TEST(Fuzz, AnalyzerMatchesBruteForceOnRandomProtocols) {
    Rng rng(20040725);  // PODC'04
    int analyzed = 0;
    for (int round = 0; round < 120; ++round) {
        const std::size_t num_states = 2 + rng.below(3);
        const auto protocol = random_protocol(rng, num_states);
        const std::uint64_t zeros = rng.below(4);
        const std::uint64_t ones = 1 + rng.below(3);
        const auto initial =
            CountConfiguration::from_input_counts(*protocol, {zeros, ones});
        if (initial.population_size() == 0) continue;
        const ConfigurationGraph graph = explore_reachable(*protocol, initial, 4000);
        if (!graph.complete || graph.size() > 150) continue;  // keep brute force cheap
        ++analyzed;
        const StableComputationResult fast = analyze_stable_computation(*protocol, initial);
        EXPECT_EQ(fast.always_converges, brute_force_always_converges(*protocol, graph))
            << "round " << round;
    }
    EXPECT_GT(analyzed, 60);  // the filter must not eat the test
}

TEST(Fuzz, SimulatedRunsLandInStableSignaturesWhenConvergent) {
    Rng rng(424242);
    int convergent_checked = 0;
    for (int round = 0; round < 80 && convergent_checked < 25; ++round) {
        const auto protocol = random_protocol(rng, 2 + rng.below(3));
        const std::uint64_t zeros = 1 + rng.below(3);
        const std::uint64_t ones = 1 + rng.below(3);
        const auto initial =
            CountConfiguration::from_input_counts(*protocol, {zeros, ones});
        StableComputationResult analysis;
        try {
            analysis = analyze_stable_computation(*protocol, initial, 4000);
        } catch (const std::runtime_error&) {
            continue;
        }
        if (!analysis.always_converges) continue;
        ++convergent_checked;

        RunOptions options;
        options.max_interactions = 200000;
        options.seed = 999 + round;
        const RunResult run = simulate(*protocol, initial, options);
        if (run.stop_reason != StopReason::kSilent) continue;
        // A silent final configuration is output-stable; its signature must
        // be one of the analyzer's stable signatures.
        const auto signature = run.final_configuration.output_counts(*protocol);
        EXPECT_NE(std::find(analysis.stable_signatures.begin(),
                            analysis.stable_signatures.end(), signature),
                  analysis.stable_signatures.end())
            << "round " << round;
    }
    EXPECT_GE(convergent_checked, 10);
}

TEST(Fuzz, CountAndAgentSemanticsAgree) {
    // Applying the same interaction sequence through AgentConfiguration and
    // CountConfiguration keeps the multiset in lockstep.
    Rng rng(7);
    for (int round = 0; round < 30; ++round) {
        const auto protocol = random_protocol(rng, 3);
        auto agents = AgentConfiguration::from_inputs(
            *protocol, {0, 1, 1, 0, 1});
        auto counts = agents.to_counts(protocol->num_states());
        for (int step = 0; step < 60; ++step) {
            const std::size_t i = rng.below(agents.size());
            std::size_t j = rng.below(agents.size() - 1);
            if (j >= i) ++j;
            const State p = agents.state(i);
            const State q = agents.state(j);
            agents.apply_interaction(*protocol, i, j);
            counts.apply_interaction(*protocol, p, q);
            ASSERT_EQ(agents.to_counts(protocol->num_states()), counts)
                << "round " << round << " step " << step;
        }
    }
}

/// The state of the `index`-th agent (0-based) of the multiset `counts`.
State state_of_agent(const std::vector<std::uint64_t>& counts, std::uint64_t index) {
    State s = 0;
    while (index >= counts[s]) index -= counts[s++];
    return s;
}

/// The count change that `moves` describes for (p, q) -> next, as a dense
/// per-state vector; also fails if two non-zero slots name the same state
/// (the netting left a state split across slots).
std::vector<std::int64_t> moves_as_deltas(std::size_t num_states, State p, State q,
                                          StatePair next, PairMoves moves) {
    const State states[4] = {p, q, next.initiator, next.responder};
    const std::int8_t slots[4] = {moves.initiator, moves.responder, moves.next_initiator,
                                  moves.next_responder};
    std::vector<std::int64_t> deltas(num_states, 0);
    std::vector<int> named(num_states, 0);
    for (std::size_t i = 0; i < 4; ++i) {
        if (slots[i] == 0) continue;
        deltas[states[i]] += slots[i];
        EXPECT_EQ(++named[states[i]], 1) << "state " << states[i] << " split across slots";
    }
    return deltas;
}

/// One ordered state pair whose interaction changes the multiset {p, q},
/// with the resulting pair.
struct Transition {
    State initiator = 0;
    State responder = 0;
    StatePair result{0, 0};
};

/// The reference list of `protocol`'s effective pairs, in row-major order,
/// from the definition: delta(p, q) is neither (p, q) nor (q, p).
std::vector<Transition> effective_pairs_of(const TabulatedProtocol& protocol) {
    std::vector<Transition> transitions;
    for (State p = 0; p < protocol.num_states(); ++p) {
        for (State q = 0; q < protocol.num_states(); ++q) {
            const StatePair next = protocol.apply(p, q);
            const bool identity = next.initiator == p && next.responder == q;
            const bool swap = next.initiator == q && next.responder == p;
            if (!identity && !swap) transitions.push_back({p, q, next});
        }
    }
    return transitions;
}

TEST(Fuzz, EffectivePairTrackerMatchesARebuildAfterEveryTransition) {
    // The incremental bookkeeping (netted moves over sparse columns) against
    // a tracker built from scratch and a brute-force W, after every booked
    // interaction.  Each random protocol's stored row entries are checked
    // against the definitions (ascending effective responders, netted moves
    // equal to the four unit moves, output flag), and its own interactions
    // are booked from those entries; the other moves are drawn to hit every
    // way the four unit moves p, q -> p', q' can alias, netted by net_moves.
    // Each pattern must occur, and stored entries must include p == q pairs
    // and partial cancellations.  Between the booked moves, the super-step
    // path rewrites the counts wholesale (reset_counts, with random counts
    // of the same population), checked the same way.
    enum Alias {
        kSameState,
        kSwap,
        kInitiatorStays,
        kSameTarget,
        kNetTwo,
        kStoredSameState,
        kStoredPartial,
        kWholesaleRewrite,
        kAliasCount
    };
    std::array<int, kAliasCount> seen{};
    Rng rng(1848);
    for (int round = 0; round < 60; ++round) {
        const std::size_t num_states = 2 + rng.below(5);
        const auto protocol = random_protocol(rng, num_states);
        std::vector<std::uint64_t> counts(num_states);
        for (std::uint64_t& count : counts) count = rng.below(5);
        counts[rng.below(num_states)] += 2;
        std::uint64_t n = 0;
        for (const std::uint64_t count : counts) n += count;
        EffectivePairTracker tracker(*protocol, counts);

        const EffectTables& tables = tracker.tables();
        const std::vector<Transition> transitions = effective_pairs_of(*protocol);
        ASSERT_EQ(tables.row_responders.size(), transitions.size()) << "round " << round;
        for (State p = 0, e = 0; p < num_states; ++p) {
            ASSERT_EQ(tables.row_start[p], e) << "round " << round;
            for (; e < tables.row_start[p + 1]; ++e) {
                const Transition& t = transitions[e];  // row-major, as the rows
                ASSERT_EQ(t.initiator, p);
                ASSERT_EQ(tables.row_responders[e], t.responder) << "round " << round;
                std::vector<std::int64_t> brute(num_states, 0);
                --brute[p];
                --brute[t.responder];
                ++brute[t.result.initiator];
                ++brute[t.result.responder];
                const PairMoves moves = tables.row_moves[e];
                EXPECT_EQ(moves_as_deltas(num_states, p, t.responder, t.result, moves), brute)
                    << "round " << round << " pair " << p << "," << t.responder;
                std::array<Symbol, 2> before = {protocol->output(p), protocol->output(t.responder)};
                std::array<Symbol, 2> after = {protocol->output(t.result.initiator),
                                               protocol->output(t.result.responder)};
                std::sort(before.begin(), before.end());
                std::sort(after.begin(), after.end());
                EXPECT_EQ(moves.output_changed, before != after) << "round " << round;
            }
        }

        for (int step = 0; step < 100; ++step) {
            const State p = state_of_agent(counts, rng.below(n));
            --counts[p];
            const State q = state_of_agent(counts, rng.below(n - 1));
            ++counts[p];
            const auto any = [&] { return static_cast<State>(rng.below(num_states)); };
            StatePair next{};
            PairMoves moves{};
            bool stored = false;
            switch (rng.below(5)) {
                case 0: {
                    // The protocol's own interaction, booked from its stored
                    // row entry when it is effective.
                    next = protocol->apply_fast(p, q);
                    for (std::size_t e = tables.row_start[p]; e < tables.row_start[p + 1]; ++e) {
                        if (tables.row_responders[e] != q) continue;
                        moves = tables.row_moves[e];
                        stored = true;
                        if (p == q) ++seen[kStoredSameState];
                        if (next.initiator == p || next.initiator == q ||
                            next.responder == p || next.responder == q)
                            ++seen[kStoredPartial];
                    }
                    break;
                }
                case 1: next = {q, p}; break;
                case 2: next = {p, any()}; break;
                case 3: next.initiator = next.responder = any(); break;
                default: next = {any(), any()}; break;
            }
            if (!stored) moves = net_moves(p, q, next);
            --counts[p];
            --counts[q];
            ++counts[next.initiator];
            ++counts[next.responder];
            tracker.apply_moves(p, q, next, moves);

            if (p == q) ++seen[kSameState];
            if (p != q && next.initiator == q && next.responder == p) ++seen[kSwap];
            if (next.initiator == p) ++seen[kInitiatorStays];
            if (next.initiator == next.responder) ++seen[kSameTarget];
            if (p == q && next.initiator == next.responder && next.initiator != p)
                ++seen[kNetTwo];

            // A booked move, then on one step in four a wholesale rewrite.
            for (int pass = 0; pass < 2; ++pass) {
                if (pass == 1) {
                    if (rng.below(4) != 0) break;
                    std::fill(counts.begin(), counts.end(), 0);
                    for (std::uint64_t agent = 0; agent < n; ++agent)
                        ++counts[rng.below(num_states)];
                    tracker.reset_counts(counts);
                    ++seen[kWholesaleRewrite];
                }
                const EffectivePairTracker fresh(*protocol, counts);
                std::uint64_t brute_w = 0;
                for (const Transition& t : transitions)
                    brute_w += counts[t.initiator] *
                               (counts[t.responder] - (t.initiator == t.responder ? 1 : 0));
                ASSERT_EQ(tracker.counts(), counts)
                    << "round " << round << " step " << step << " pass " << pass;
                ASSERT_EQ(fresh.effective_pairs(), brute_w) << "round " << round;
                ASSERT_EQ(tracker.effective_pairs(), brute_w)
                    << "round " << round << " step " << step << " pass " << pass;
                for (State s = 0; s < num_states; ++s)
                    ASSERT_EQ(tracker.row_weight(s), fresh.row_weight(s))
                        << "round " << round << " step " << step << " pass " << pass
                        << " state " << s;
            }
        }
    }
    for (int alias = 0; alias < kAliasCount; ++alias)
        EXPECT_GT(seen[alias], 0) << "aliasing pattern " << alias << " never drawn";
}

TEST(Fuzz, SupportSilenceTestMatchesTheMultisetTestAfterEveryTransition) {
    // The incremental support test against the multiset definition (no
    // effective pair of present states, two agents for a diagonal pair)
    // after every booked move.  Large rounds span several mask words; the
    // populations are small, so both verdicts occur at both sizes.
    std::array<std::array<int, 2>, 2> seen{};  // [large][silent]
    Rng rng(1849);
    for (int round = 0; round < 80; ++round) {
        const bool large = round % 2 == 1;
        const std::size_t num_states = large ? 60 + rng.below(80) : 2 + rng.below(5);
        const auto protocol = random_protocol(rng, num_states);
        std::vector<std::uint64_t> counts(num_states);
        for (int agent = 0; agent < 3 + static_cast<int>(rng.below(3)); ++agent)
            ++counts[rng.below(large ? 4 : num_states)];
        std::uint64_t n = 0;
        for (const std::uint64_t count : counts) n += count;
        SupportSilenceTest test(*protocol, counts);
        const std::vector<Transition> transitions = effective_pairs_of(*protocol);

        for (int step = 0; step < 100; ++step) {
            const State p = state_of_agent(counts, rng.below(n));
            --counts[p];
            const State q = state_of_agent(counts, rng.below(n - 1));
            ++counts[p];
            const StatePair next =
                rng.below(2) == 0
                    ? protocol->apply_fast(p, q)
                    : StatePair{static_cast<State>(rng.below(num_states)),
                                static_cast<State>(rng.below(num_states))};
            --counts[p];
            --counts[q];
            ++counts[next.initiator];
            ++counts[next.responder];
            test.update(counts, p, q, next);

            bool silent = true;
            for (const Transition& t : transitions)
                if (counts[t.initiator] > 0 && counts[t.responder] > 0 &&
                    (t.initiator != t.responder || counts[t.initiator] > 1))
                    silent = false;
            ASSERT_EQ(test.silent(), silent) << "round " << round << " step " << step;
            ++seen[large][silent];
        }
        // A checkpoint restore's reset() agrees with a fresh build.
        test.reset(counts);
        EXPECT_EQ(test.silent(), SupportSilenceTest(*protocol, counts).silent()) << "round " << round;
    }
    for (int large = 0; large < 2; ++large)
        for (int silent = 0; silent < 2; ++silent)
            EXPECT_GT(seen[large][silent], 0) << "large " << large << " silent " << silent;

    // The agent stepper skips the bookkeeping on moves that cross no level;
    // stepped on random protocols with ten agents, its verdict must still
    // match the direct multiset test after every step.
    int silent_runs = 0;
    for (int round = 0; round < 60; ++round) {
        const std::size_t num_states = 2 + rng.below(3);
        const auto protocol = random_protocol(rng, num_states);
        std::vector<std::uint64_t> counts(num_states);
        for (int agent = 0; agent < 10; ++agent) ++counts[rng.below(num_states)];
        PairStepper<UniformPairModel, ObservedEngine::kAgentArray> stepper(
            *protocol,
            AgentConfiguration::from_counts(CountConfiguration::from_state_counts(counts))
                .states(),
            UniformPairModel{}, "fuzz");
        for (int step = 0; step < 300 && !stepper.is_silent(); ++step) {
            stepper.step(rng);
            ASSERT_EQ(stepper.is_silent(), stepper.counts().is_silent(*protocol))
                << "round " << round << " step " << step;
        }
        silent_runs += stepper.is_silent() ? 1 : 0;
    }
    EXPECT_GT(silent_runs, 0);
    EXPECT_LT(silent_runs, 60);
}

TEST(Fuzz, SerializationRoundTripsRandomProtocols) {
    Rng rng(111);
    for (int round = 0; round < 40; ++round) {
        const auto protocol = random_protocol(rng, 2 + rng.below(4));
        const auto reloaded = deserialize_protocol(serialize_protocol(*protocol));
        ASSERT_EQ(reloaded->num_states(), protocol->num_states()) << round;
        for (State p = 0; p < protocol->num_states(); ++p) {
            EXPECT_EQ(reloaded->output_fast(p), protocol->output_fast(p)) << round;
            for (State q = 0; q < protocol->num_states(); ++q)
                EXPECT_EQ(reloaded->apply_fast(p, q), protocol->apply_fast(p, q)) << round;
        }
    }
}

Formula random_formula(Rng& rng, int depth) {
    const auto random_coefficients = [&rng]() {
        std::vector<std::int64_t> coefficients(2);
        for (auto& a : coefficients) a = static_cast<std::int64_t>(rng.below(5)) - 2;
        if (coefficients[0] == 0 && coefficients[1] == 0) coefficients[0] = 1;
        return coefficients;
    };
    if (depth == 0 || rng.below(3) == 0) {
        if (rng.below(2) == 0) {
            return Formula::threshold(random_coefficients(),
                                      static_cast<std::int64_t>(rng.below(7)) - 3);
        }
        return Formula::congruence(random_coefficients(),
                                   static_cast<std::int64_t>(rng.below(4)),
                                   2 + static_cast<std::int64_t>(rng.below(2)));
    }
    switch (rng.below(3)) {
        case 0:
            return Formula::conjunction(random_formula(rng, depth - 1),
                                        random_formula(rng, depth - 1));
        case 1:
            return Formula::disjunction(random_formula(rng, depth - 1),
                                        random_formula(rng, depth - 1));
        default:
            return Formula::negation(random_formula(rng, depth - 1));
    }
}

TEST(Fuzz, CompiledRandomFormulasMatchEvaluator) {
    Rng rng(31337);
    for (int round = 0; round < 12; ++round) {
        const Formula formula = random_formula(rng, 2);
        const auto protocol = compile_formula(formula, 2);
        for (std::uint64_t n = 1; n <= 3; ++n) {
            testutil::for_each_composition(n, 2, [&](const std::vector<std::uint64_t>& counts) {
                const auto initial =
                    CountConfiguration::from_input_counts(*protocol, counts);
                const bool expected = formula.evaluate(testutil::to_signed(counts));
                EXPECT_TRUE(stably_computes_bool(*protocol, initial, expected, 1u << 22))
                    << "round " << round << " formula " << formula.to_string() << " n=" << n;
            });
        }
    }
}

/// Character ranges [begin, end) of the tokens of `text`: runs of letters
/// and digits, and single other non-space characters.
std::vector<std::pair<std::size_t, std::size_t>> token_spans(const std::string& text) {
    const auto word = [&text](std::size_t i) {
        return std::isalnum(static_cast<unsigned char>(text[i])) != 0;
    };
    std::vector<std::pair<std::size_t, std::size_t>> spans;
    for (std::size_t i = 0; i < text.size();) {
        if (std::isspace(static_cast<unsigned char>(text[i]))) {
            ++i;
            continue;
        }
        std::size_t end = i + 1;
        if (word(i))
            while (end < text.size() && word(end)) ++end;
        spans.emplace_back(i, end);
        i = end;
    }
    return spans;
}

/// One seeded mutant of a corpus text: 1-3 flipped bits, a truncation to a
/// prefix or a suffix, or 0-2 tokens replaced by 1-3 tokens of another text.
std::string mutate(Rng& rng, const std::vector<std::string>& corpus) {
    std::string text = corpus[rng.below(corpus.size())];
    switch (rng.below(3)) {
        case 0:
            for (std::uint64_t flips = 1 + rng.below(3); flips > 0; --flips)
                text[rng.below(text.size())] ^= static_cast<char>(1u << rng.below(8));
            return text;
        case 1: {
            const std::size_t cut = rng.below(text.size() + 1);
            return rng.below(2) == 0 ? text.substr(0, cut) : text.substr(cut);
        }
        default: {
            const auto spans = token_spans(text);
            const std::string& donor = corpus[rng.below(corpus.size())];
            const auto donor_spans = token_spans(donor);
            const std::size_t at = rng.below(spans.size() + 1);
            const std::size_t removed = std::min<std::size_t>(rng.below(3), spans.size() - at);
            const std::size_t from = rng.below(donor_spans.size());
            const std::size_t to =
                std::min<std::size_t>(from + rng.below(3), donor_spans.size() - 1);
            const std::size_t begin = at < spans.size() ? spans[at].first : text.size();
            const std::size_t end = removed == 0 ? begin : spans[at + removed - 1].second;
            return text.substr(0, begin) + " " +
                   donor.substr(donor_spans[from].first,
                                donor_spans[to].second - donor_spans[from].first) +
                   " " + text.substr(end);
        }
    }
}

TEST(Fuzz, MutatedFormulasCompileOrFailByName) {
    // The formulas of the parser, compiler and Theorem 5 sweep tests.
    const std::vector<std::string> corpus = {
        "x0 - 19 x1 < 1", "2*x0 - x1 < 3", "x0 + 1 < x1 + 3", "x0 - 2 x1 = 0 mod 3",
        "x0 + x1 >= 4 | x0 = 2 mod 5", "(x0 < 3) & !(x1 = 0 mod 2)",
        "x0 < 1 & x1 < 1 | x0 + x1 >= 5", "(x0 < 2) & ((x1 < 1) | (x0 = 0 mod 2))",
        "!!(x0 < 2)", "x0 != 2", "5 < x0", "-2*x1 < 0", "x0 = x1 mod 2", "x0 <= 2",
        "-9223372036854775807 - 1 + x0 < -1",
        "9223372036854775807*x0 - 9223372036854775807*x1 < 0", "x0 - x1 < 0", "x0 = 1 mod 3",
        "x0 = 1 mod 2 & x0 < 4", "x0 = 0 mod 2 | x0 >= 5", "!(x0 < 3)", "x0 = x1", "x1 - x0 < 0 | !(x0 + x1 = 0 mod 2)", "20 x1 >= x0 + x1",
        "x0 - 2 x1 < 2", "2 x0 + x1 = 1 mod 3", "x0 < 3 & x1 = 0 mod 2",
        "!(x0 + x1 >= 4 | x0 - x1 = 0 mod 2)", "x0 - x1 = 1", "x0 = 1 mod 3 | x0 >= 7"};
    Rng rng(22);
    int compiled = 0;
    for (int round = 0; round < 3000; ++round) {
        const std::string text = mutate(rng, corpus);
        try {
            const auto protocol = compile_formula(parse_formula(text));
            EXPECT_LE(protocol->num_states(), 2048u) << text;
            ++compiled;
        } catch (const std::invalid_argument& error) {
            // Refused by the parser or the compiler, under its own name.
            const std::string what = error.what();
            EXPECT_TRUE(what.starts_with("parse_formula: ") ||
                        what.starts_with("compile_formula: "))
                << "\"" << text << "\" refused as: " << what;
        } catch (const std::exception& error) {
            ADD_FAILURE() << "\"" << text << "\" threw " << error.what();
        }
    }
    EXPECT_GT(compiled, 300);  // mutants that still parse reach the closure
}

}  // namespace
}  // namespace popproto
