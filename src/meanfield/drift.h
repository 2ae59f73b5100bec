// Mean-field drift extraction (the fluid limit of uniform random pairing).
//
// Bournez et al., "On the Convergence of Population Protocols When
// Population Goes to Infinity" (see PAPERS.md), show that under uniform
// random ordered pairing the normalized count (density) vector x of an
// n-agent run, watched in fluid time t = i / n (one interaction advances
// the clock by 1/n), converges as n -> infinity to the solution of the
// ODE dx/dt = F(x) with the quadratic drift
//
//   F_s(x) = sum_{p,q} x_p x_q ( [delta_1(p,q) = s] + [delta_2(p,q) = s]
//                                - [p = s] - [q = s] ).
//
// Only multiset-changing ordered pairs contribute — identities and swaps
// cancel exactly — so the drift is assembled once, one term per effective
// pair in row-major order with its netted count moves (net_moves,
// core/effect_tables.h), as a sparse quadratic form and evaluated in
// O(#effective pairs), independent of n.  Each term's
// coefficients sum to zero (an interaction conserves agents), so
// sum_s F_s(x) = 0 identically and the simplex is invariant:
// trajectories started at a density vector stay one.

#ifndef POPPROTO_MEANFIELD_DRIFT_H
#define POPPROTO_MEANFIELD_DRIFT_H

#include <cstddef>
#include <utility>
#include <vector>

#include "core/tabulated_protocol.h"

namespace popproto {

/// The vector field F of a protocol's fluid limit, assembled once and
/// evaluated many times by the RK45 integrator (meanfield/integrator.h).
class DriftField {
public:
    explicit DriftField(const TabulatedProtocol& protocol);

    std::size_t num_states() const { return num_states_; }

    /// Number of ordered state pairs with a nonzero drift contribution
    /// (== the protocol's effective pairs).
    std::size_t num_terms() const { return terms_.size(); }

    /// Writes F(x) into `out` (resized to num_states()).  `x` must have
    /// num_states() entries; it is a density vector in intended use but
    /// any point is accepted (the quadratic form is defined everywhere).
    void eval(const std::vector<double>& x, std::vector<double>& out) const;

    /// Convenience allocating overload.
    std::vector<double> operator()(const std::vector<double>& x) const;

    /// sup-norm ||F(x)||_inf, the fluid analogue of the batch engine's
    /// effective-pair count W (both vanish exactly on silent mixtures of
    /// mutually-null states).
    double sup_norm(const std::vector<double>& x) const;

private:
    /// One ordered pair (p, q) with its sparse density changes: interacting
    /// moves weight x_p * x_q along `changes` (coefficients in {-2,-1,1,2},
    /// summing to zero; each state at most once).
    struct Term {
        State p = 0;
        State q = 0;
        std::vector<std::pair<State, double>> changes;
    };

    std::size_t num_states_ = 0;
    std::vector<Term> terms_;
};

}  // namespace popproto

#endif  // POPPROTO_MEANFIELD_DRIFT_H
