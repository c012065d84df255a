//! Terms-of-service: the §3.4 peering conditions as an executable
//! neutrality-enforcement engine.
//!
//! A POC-connected LMP must not:
//!
//! 1. *(i)* differentially treat (priorities or blocking) incoming traffic
//!    based on source or application, nor outgoing traffic based on
//!    destination or application;
//! 2. *(ii)* differentially provide CDN or other application-enhancement
//!    services based on the source (incoming) or destination (outgoing);
//! 3. *(iii)* differentially allow third parties to provide such services
//!    targeting only a subset of traffic.
//!
//! Exceptions the paper carves out: security blocking, internal
//! maintenance priority, and QoS offered openly at posted prices ("we make
//! a distinction between service discrimination and QoS, and disallow the
//! former while not prohibiting the latter").

use crate::entity::EntityId;
use serde::{Deserialize, Serialize};

/// What traffic a policy matches. `None` = wildcard; a `Some` selector is
/// what makes a policy *differential*.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct PolicyMatch {
    /// Match on the origin entity of incoming traffic.
    pub source: Option<EntityId>,
    /// Match on the destination entity of outgoing traffic.
    pub destination: Option<EntityId>,
    /// Match on application/protocol (e.g. "video", "voip").
    pub application: Option<String>,
}

impl PolicyMatch {
    /// Matches everything.
    pub fn any() -> Self {
        Self::default()
    }

    /// Whether the policy singles out a subset of traffic.
    pub(crate) fn is_differential(&self) -> bool {
        self.source.is_some() || self.destination.is_some() || self.application.is_some()
    }
}

/// What the policy does to matched traffic.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum PolicyAction {
    Block,
    /// Scheduling priority change (positive = boost, negative = throttle).
    Prioritize(i32),
    /// Provide a CDN / application-enhancement service to matched traffic.
    ProvideEnhancement {
        service: String,
    },
    /// Permit a third party to install an enhancement service that applies
    /// to the matched traffic.
    AllowThirdPartyEnhancement {
        provider: String,
    },
}

/// The declared basis for the policy — what the LMP claims justifies it.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum PolicyBasis {
    /// Security response (the paper's blocking exception).
    Security,
    /// Internal maintenance traffic handling (the priority exception).
    Maintenance,
    /// A QoS tier or service offered openly at a posted price, available
    /// to anyone who pays.
    PostedPrice { price: f64, openly_offered: bool },
    /// No declared basis.
    Commercial,
}

/// A traffic-handling policy an LMP wants to (or is observed to) apply.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TrafficPolicy {
    /// The LMP applying the policy.
    pub lmp: EntityId,
    pub matches: PolicyMatch,
    pub action: PolicyAction,
    pub basis: PolicyBasis,
}

/// The engine's ruling.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum Verdict {
    Allowed {
        rationale: String,
    },
    /// Violation of peering condition (i), (ii) or (iii).
    Violation {
        condition: u8,
        rationale: String,
    },
}

impl Verdict {
    pub fn is_violation(&self) -> bool {
        matches!(self, Verdict::Violation { .. })
    }
}

/// Judge one policy against the peering conditions. A ruling depends on
/// the policy alone; [`review_all`] batches.
///
/// ```
/// use poc_core::tos::*;
/// use poc_core::entity::EntityId;
///
/// // Source-based blocking without a security basis violates condition (i):
/// let verdict = review(&TrafficPolicy {
///     lmp: EntityId(0),
///     matches: PolicyMatch { source: Some(EntityId(7)), ..PolicyMatch::any() },
///     action: PolicyAction::Block,
///     basis: PolicyBasis::Commercial,
/// });
/// assert!(verdict.is_violation());
/// ```
pub fn review(policy: &TrafficPolicy) -> Verdict {
    let differential = policy.matches.is_differential();
    match (&policy.action, &policy.basis) {
        // Security blocking is the explicit carve-out — even targeted.
        (PolicyAction::Block, PolicyBasis::Security) => {
            Verdict::Allowed { rationale: "security exception (ToS carve-out)".into() }
        }
        // Maintenance priority likewise.
        (PolicyAction::Prioritize(_), PolicyBasis::Maintenance) => {
            Verdict::Allowed { rationale: "internal maintenance exception".into() }
        }
        // Posted-price QoS / services must be openly offered and not
        // single out traffic the buyer didn't choose: the *offer* is
        // uniform even though only payers receive it.
        (
            PolicyAction::Prioritize(_) | PolicyAction::ProvideEnhancement { .. },
            PolicyBasis::PostedPrice { price, openly_offered },
        ) => {
            if *openly_offered && *price >= 0.0 {
                Verdict::Allowed {
                    rationale: format!(
                        "QoS/enhancement at posted price ${price:.2}, openly offered"
                    ),
                }
            } else {
                Verdict::Violation {
                    condition: if matches!(policy.action, PolicyAction::Prioritize(_)) {
                        1
                    } else {
                        2
                    },
                    rationale: "priced service not openly offered".into(),
                }
            }
        }
        // Blocking without a security basis.
        (PolicyAction::Block, _) => Verdict::Violation {
            condition: 1,
            rationale: if differential {
                "blocking traffic by source/destination/application".into()
            } else {
                "blanket blocking of peer traffic".into()
            },
        },
        // Differential priority without an allowed basis.
        (PolicyAction::Prioritize(_), _) => {
            if differential {
                Verdict::Violation {
                    condition: 1,
                    rationale: "differential priority based on traffic identity".into(),
                }
            } else {
                Verdict::Allowed {
                    rationale: "uniform scheduling change affects all traffic equally".into(),
                }
            }
        }
        // Enhancement services granted to a subset without posted price.
        (PolicyAction::ProvideEnhancement { .. }, _) => {
            if differential {
                Verdict::Violation {
                    condition: 2,
                    rationale: "CDN/enhancement provided only to selected traffic".into(),
                }
            } else {
                Verdict::Allowed {
                    rationale: "enhancement applied uniformly to all traffic".into(),
                }
            }
        }
        // Third-party installs must be open to all comers.
        (PolicyAction::AllowThirdPartyEnhancement { .. }, basis) => {
            if differential {
                Verdict::Violation {
                    condition: 3,
                    rationale: "third-party enhancement permitted only for a subset of traffic"
                        .into(),
                }
            } else if matches!(basis, PolicyBasis::PostedPrice { openly_offered: false, .. }) {
                Verdict::Violation {
                    condition: 3,
                    rationale: "third-party install terms not openly offered".into(),
                }
            } else {
                Verdict::Allowed { rationale: "third-party enhancement open to all traffic".into() }
            }
        }
    }
}

/// Judge a batch, returning only the violations.
pub fn review_all(policies: &[TrafficPolicy]) -> Vec<(&TrafficPolicy, Verdict)> {
    policies.iter().map(|p| (p, review(p))).filter(|(_, v)| v.is_violation()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lmp() -> EntityId {
        EntityId(0)
    }

    fn src() -> EntityId {
        EntityId(1)
    }

    #[test]
    fn source_based_blocking_violates_condition_1() {
        let v = review(&TrafficPolicy {
            lmp: lmp(),
            matches: PolicyMatch { source: Some(src()), ..PolicyMatch::any() },
            action: PolicyAction::Block,
            basis: PolicyBasis::Commercial,
        });
        assert_eq!(
            v,
            Verdict::Violation {
                condition: 1,
                rationale: "blocking traffic by source/destination/application".into()
            }
        );
    }

    #[test]
    fn security_blocking_allowed() {
        let v = review(&TrafficPolicy {
            lmp: lmp(),
            matches: PolicyMatch { source: Some(src()), ..PolicyMatch::any() },
            action: PolicyAction::Block,
            basis: PolicyBasis::Security,
        });
        assert!(!v.is_violation(), "{v:?}");
    }

    #[test]
    fn application_throttling_violates_condition_1() {
        // The §2.4.2 cellular-provider scenario: throttle video.
        let v = review(&TrafficPolicy {
            lmp: lmp(),
            matches: PolicyMatch { application: Some("video".into()), ..PolicyMatch::any() },
            action: PolicyAction::Prioritize(-10),
            basis: PolicyBasis::Commercial,
        });
        assert!(matches!(v, Verdict::Violation { condition: 1, .. }), "{v:?}");
    }

    #[test]
    fn posted_price_qos_allowed() {
        // The paper's QoS-vs-discrimination distinction.
        let v = review(&TrafficPolicy {
            lmp: lmp(),
            matches: PolicyMatch { application: Some("voip".into()), ..PolicyMatch::any() },
            action: PolicyAction::Prioritize(5),
            basis: PolicyBasis::PostedPrice { price: 9.99, openly_offered: true },
        });
        assert!(!v.is_violation(), "{v:?}");
        // Same action, secret pricing: violation.
        let v2 = review(&TrafficPolicy {
            lmp: lmp(),
            matches: PolicyMatch { application: Some("voip".into()), ..PolicyMatch::any() },
            action: PolicyAction::Prioritize(5),
            basis: PolicyBasis::PostedPrice { price: 9.99, openly_offered: false },
        });
        assert!(v2.is_violation());
    }

    #[test]
    fn selective_cdn_violates_condition_2() {
        let v = review(&TrafficPolicy {
            lmp: lmp(),
            matches: PolicyMatch { source: Some(src()), ..PolicyMatch::any() },
            action: PolicyAction::ProvideEnhancement { service: "cdn-cache".into() },
            basis: PolicyBasis::Commercial,
        });
        assert!(matches!(v, Verdict::Violation { condition: 2, .. }), "{v:?}");
        // Uniform CDN for everyone is fine.
        let v2 = review(&TrafficPolicy {
            lmp: lmp(),
            matches: PolicyMatch::any(),
            action: PolicyAction::ProvideEnhancement { service: "cdn-cache".into() },
            basis: PolicyBasis::Commercial,
        });
        assert!(!v2.is_violation());
    }

    #[test]
    fn exclusive_third_party_install_violates_condition_3() {
        // The paper's example: letting Netflix install enhancement boxes
        // while refusing others.
        let v = review(&TrafficPolicy {
            lmp: lmp(),
            matches: PolicyMatch { source: Some(src()), ..PolicyMatch::any() },
            action: PolicyAction::AllowThirdPartyEnhancement { provider: "netflix".into() },
            basis: PolicyBasis::Commercial,
        });
        assert!(matches!(v, Verdict::Violation { condition: 3, .. }), "{v:?}");
        // Open install program at a set fee is fine.
        let v2 = review(&TrafficPolicy {
            lmp: lmp(),
            matches: PolicyMatch::any(),
            action: PolicyAction::AllowThirdPartyEnhancement { provider: "anyone".into() },
            basis: PolicyBasis::PostedPrice { price: 1000.0, openly_offered: true },
        });
        assert!(!v2.is_violation(), "{v2:?}");
    }

    #[test]
    fn maintenance_priority_allowed() {
        let v = review(&TrafficPolicy {
            lmp: lmp(),
            matches: PolicyMatch { application: Some("ospf".into()), ..PolicyMatch::any() },
            action: PolicyAction::Prioritize(100),
            basis: PolicyBasis::Maintenance,
        });
        assert!(!v.is_violation());
    }

    #[test]
    fn uniform_priority_change_allowed() {
        let v = review(&TrafficPolicy {
            lmp: lmp(),
            matches: PolicyMatch::any(),
            action: PolicyAction::Prioritize(-1),
            basis: PolicyBasis::Commercial,
        });
        assert!(!v.is_violation(), "uniform dampening treats all traffic equally");
    }

    #[test]
    fn review_all_filters_violations() {
        let policies = vec![
            TrafficPolicy {
                lmp: lmp(),
                matches: PolicyMatch::any(),
                action: PolicyAction::Prioritize(0),
                basis: PolicyBasis::Commercial,
            },
            TrafficPolicy {
                lmp: lmp(),
                matches: PolicyMatch { source: Some(src()), ..PolicyMatch::any() },
                action: PolicyAction::Block,
                basis: PolicyBasis::Commercial,
            },
        ];
        let violations = review_all(&policies);
        assert_eq!(violations.len(), 1);
    }
}
