// Pairwise leader election (used throughout Sect. 4-6).
//
// Every agent starts as a leader; when two leaders meet, the responder
// abdicates.  Every fair execution eventually reaches a unique leader, and
// under uniform random pairing the expected number of interactions is
// exactly sum_{i=2}^{n} C(n,2)/C(i,2) = (n-1)^2 (Sect. 6), the claim
// reproduced by bench_leader_election.

#ifndef POPPROTO_PROTOCOLS_LEADER_ELECTION_H
#define POPPROTO_PROTOCOLS_LEADER_ELECTION_H

#include <memory>

#include "core/configuration.h"
#include "core/tabulated_protocol.h"

namespace popproto {

/// State/output 0 = follower, 1 = leader.  The single input symbol maps to
/// the leader state.
std::unique_ptr<TabulatedProtocol> make_leader_election_protocol();

/// Number of leaders in a configuration of the leader election protocol.
std::uint64_t count_leaders(const CountConfiguration& configuration);

/// Closed form (n-1)^2 for the expected interactions to elect one leader.
double leader_election_expected_interactions(std::uint64_t population);

}  // namespace popproto

#endif  // POPPROTO_PROTOCOLS_LEADER_ELECTION_H
