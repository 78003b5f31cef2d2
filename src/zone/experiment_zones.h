// Builders for the experiment zones of Appendix A.
//
// The paper's measurements and attacks use four query patterns:
//   WC: pseudo-random names answered by a wildcard (NOERROR),
//   NX: pseudo-random names with no match (NXDOMAIN),
//   CQ: CNAME chains of many-label names, amplified by QNAME minimization,
//   FF: NS fan-out x fan-out compositional amplification (CAMP).
//
// `MakeTargetZone` builds the victim zone serving WC under the "wc" subtree,
// NX under "nx" (no records), and CQ chains under "cq". `MakeAttackerZone`
// builds the attacker-controlled zone whose delegations fan out into the
// target zone, reproducing Fig. 12(b).

#ifndef SRC_ZONE_EXPERIMENT_ZONES_H_
#define SRC_ZONE_EXPERIMENT_ZONES_H_

#include <string>

#include "src/zone/zone.h"

namespace dcc {

// Subtree labels inside the target zone, shared with the attack generators.
inline constexpr const char* kWildcardSubtree = "wc";
inline constexpr const char* kNxSubtree = "nx";
inline constexpr const char* kCnameSubtree = "cq";

struct TargetZoneOptions {
  uint32_t ttl = 600;
  HostAddress wildcard_addr = 0x7f000001;
  // CQ chain configuration (Fig. 12a): `cq_instances` independent chains,
  // each `cq_chain_length` CNAMEs long, with `cq_labels` numeric labels in
  // front of every chain-element name (driving QMIN one query per label).
  int cq_instances = 0;
  int cq_chain_length = 16;
  int cq_labels = 15;
  bool nsec = false;  // Build with NSEC denial (ZoneOptions::nsec).
};

// Builds the victim zone at `apex` with the given options. The zone also
// contains an A record for "ans.<apex>" -> `self_addr` so the zone can name
// its own server.
Zone MakeTargetZone(const Name& apex, HostAddress self_addr,
                    const TargetZoneOptions& options = {});

// The head name of CQ chain instance `i`: "<L>.<L-1>...1.r1-<i>.cq.<apex>".
Name CqChainHead(const Name& apex, int instance, int chain_index, int labels);

struct AttackerZoneOptions {
  uint32_t ttl = 600;
  int instances = 5000;  // Distinct FF instances (Appendix A uses 5000).
  int fanout_a = 7;      // First-level NS fan-out.
  int fanout_t = 7;      // Second-level fan-out into the target zone.
};

// Builds the attacker zone at `apex` whose "q-<i>" names delegate to
// fanout_a nameservers, each of which delegates to fanout_t nameserver
// names under "<wc subtree>.<target_apex>" (answered by the target's
// wildcard). Resolving one "q-<i>" name costs the resolver about
// fanout_a * fanout_t queries to the target zone's server.
Zone MakeAttackerZone(const Name& apex, const Name& target_apex,
                      const AttackerZoneOptions& options = {});

// The query name triggering FF instance `i`: "q-<i>.<apex>".
Name FfQueryName(const Name& attacker_apex, int instance);

}  // namespace dcc

#endif  // SRC_ZONE_EXPERIMENT_ZONES_H_
