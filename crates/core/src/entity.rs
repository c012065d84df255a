//! The ecosystem registry: who participates, in what role, attached where.
//!
//! The paper's cast (§3.2): the POC itself, Bandwidth Providers leasing it
//! links, Last-Mile Providers and directly-attached CSPs buying transit,
//! external ISPs supplying fallback connectivity, and customers hanging off
//! LMPs (customers are aggregated per LMP here; the POC never sees them
//! individually).

use poc_topology::{BpId, RouterId};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// Registry-scoped entity identifier.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
#[serde(transparent)]
pub struct EntityId(pub u32);

impl fmt::Display for EntityId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// What role an entity plays.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum EntityKind {
    /// A Last-Mile Provider attached at a POC router.
    Lmp { router: RouterId },
    /// A content/service provider attached directly to the POC.
    DirectCsp { router: RouterId },
    /// A CSP reaching the POC through an LMP.
    HostedCsp { via_lmp: EntityId },
    /// A Bandwidth Provider offering links to the auction.
    BandwidthProvider { bp: BpId },
    /// An external ISP providing fallback connectivity (virtual links).
    ExternalIsp { isp_index: u32 },
}

/// A registered entity.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Entity {
    pub id: EntityId,
    pub name: String,
    pub kind: EntityKind,
    /// Whether the member has signed the POC terms-of-service (required for
    /// LMPs and directly-attached CSPs before traffic is accepted).
    pub tos_signed: bool,
}

/// The registry. Ids are minted in registration order.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct Registry {
    entities: Vec<Entity>,
    by_name: BTreeMap<String, EntityId>,
}

/// Errors from registration and lookup.
#[derive(Clone, Debug, PartialEq)]
pub enum RegistryError {
    DuplicateName(String),
    UnknownEntity(EntityId),
    /// Hosted CSPs must point at a registered LMP.
    NotAnLmp(EntityId),
}

impl fmt::Display for RegistryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegistryError::DuplicateName(n) => write!(f, "name {n:?} already registered"),
            RegistryError::UnknownEntity(e) => write!(f, "unknown entity {e}"),
            RegistryError::NotAnLmp(e) => write!(f, "{e} is not an LMP"),
        }
    }
}

impl std::error::Error for RegistryError {}

impl Registry {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Register an entity; names must be unique.
    pub(crate) fn register(
        &mut self,
        name: &str,
        kind: EntityKind,
    ) -> Result<EntityId, RegistryError> {
        if self.by_name.contains_key(name) {
            return Err(RegistryError::DuplicateName(name.to_string()));
        }
        if let EntityKind::HostedCsp { via_lmp } = kind {
            match self.get(via_lmp) {
                Ok(e) if matches!(e.kind, EntityKind::Lmp { .. }) => {}
                Ok(_) => return Err(RegistryError::NotAnLmp(via_lmp)),
                Err(e) => return Err(e),
            }
        }
        let id = EntityId(u32::try_from(self.entities.len()).expect("registry overflow"));
        self.entities.push(Entity { id, name: name.to_string(), kind, tos_signed: false });
        self.by_name.insert(name.to_string(), id);
        Ok(id)
    }

    pub(crate) fn get(&self, id: EntityId) -> Result<&Entity, RegistryError> {
        self.entities.get(id.0 as usize).ok_or(RegistryError::UnknownEntity(id))
    }

    pub fn by_name(&self, name: &str) -> Option<&Entity> {
        self.by_name.get(name).map(|&id| &self.entities[id.0 as usize])
    }

    /// Record ToS acceptance.
    pub(crate) fn sign_tos(&mut self, id: EntityId) -> Result<(), RegistryError> {
        let e = self.entities.get_mut(id.0 as usize).ok_or(RegistryError::UnknownEntity(id))?;
        e.tos_signed = true;
        Ok(())
    }

    /// Whether the entity may send traffic through the POC: LMPs and
    /// direct CSPs need a signed ToS; hosted CSPs ride their LMP's
    /// signature; infrastructure roles never originate POC traffic.
    pub fn may_send_traffic(&self, id: EntityId) -> bool {
        match self.get(id) {
            Ok(e) => match &e.kind {
                EntityKind::Lmp { .. } | EntityKind::DirectCsp { .. } => e.tos_signed,
                EntityKind::HostedCsp { via_lmp } => self.may_send_traffic(*via_lmp),
                EntityKind::BandwidthProvider { .. } | EntityKind::ExternalIsp { .. } => false,
            },
            Err(_) => false,
        }
    }

    /// The POC router where this entity's traffic enters, if any.
    pub(crate) fn attachment_router(&self, id: EntityId) -> Option<RouterId> {
        match &self.get(id).ok()?.kind {
            EntityKind::Lmp { router } | EntityKind::DirectCsp { router } => Some(*router),
            EntityKind::HostedCsp { via_lmp } => self.attachment_router(*via_lmp),
            _ => None,
        }
    }

    pub fn iter(&self) -> impl Iterator<Item = &Entity> {
        self.entities.iter()
    }

    /// All LMPs.
    pub fn lmps(&self) -> Vec<&Entity> {
        self.entities.iter().filter(|e| matches!(e.kind, EntityKind::Lmp { .. })).collect()
    }

    pub fn len(&self) -> usize {
        self.entities.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entities.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_and_lookup() {
        let mut r = Registry::new();
        let lmp = r.register("acme-lmp", EntityKind::Lmp { router: RouterId(0) }).unwrap();
        assert_eq!(r.get(lmp).unwrap().name, "acme-lmp");
        assert_eq!(r.by_name("acme-lmp").unwrap().id, lmp);
        assert!(r.by_name("nope").is_none());
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut r = Registry::new();
        r.register("x", EntityKind::Lmp { router: RouterId(0) }).unwrap();
        let err = r.register("x", EntityKind::DirectCsp { router: RouterId(1) }).unwrap_err();
        assert_eq!(err, RegistryError::DuplicateName("x".into()));
    }

    #[test]
    fn hosted_csp_requires_lmp() {
        let mut r = Registry::new();
        let csp = r.register("direct", EntityKind::DirectCsp { router: RouterId(0) }).unwrap();
        let err = r.register("hosted", EntityKind::HostedCsp { via_lmp: csp }).unwrap_err();
        assert_eq!(err, RegistryError::NotAnLmp(csp));
        let lmp = r.register("lmp", EntityKind::Lmp { router: RouterId(1) }).unwrap();
        assert!(r.register("hosted", EntityKind::HostedCsp { via_lmp: lmp }).is_ok());
    }

    #[test]
    fn traffic_permission_follows_tos() {
        let mut r = Registry::new();
        let lmp = r.register("lmp", EntityKind::Lmp { router: RouterId(0) }).unwrap();
        let hosted = r.register("csp", EntityKind::HostedCsp { via_lmp: lmp }).unwrap();
        let bp = r.register("bp", EntityKind::BandwidthProvider { bp: BpId(0) }).unwrap();
        assert!(!r.may_send_traffic(lmp));
        assert!(!r.may_send_traffic(hosted), "hosted CSP rides its LMP's signature");
        r.sign_tos(lmp).unwrap();
        assert!(r.may_send_traffic(lmp));
        assert!(r.may_send_traffic(hosted));
        assert!(!r.may_send_traffic(bp), "BPs never originate POC traffic");
    }

    #[test]
    fn attachment_router_resolution() {
        let mut r = Registry::new();
        let lmp = r.register("lmp", EntityKind::Lmp { router: RouterId(7) }).unwrap();
        let hosted = r.register("csp", EntityKind::HostedCsp { via_lmp: lmp }).unwrap();
        let isp = r.register("isp", EntityKind::ExternalIsp { isp_index: 0 }).unwrap();
        assert_eq!(r.attachment_router(lmp), Some(RouterId(7)));
        assert_eq!(r.attachment_router(hosted), Some(RouterId(7)));
        assert_eq!(r.attachment_router(isp), None);
    }

    #[test]
    fn lmps_listing() {
        let mut r = Registry::new();
        r.register("lmp1", EntityKind::Lmp { router: RouterId(0) }).unwrap();
        r.register("csp", EntityKind::DirectCsp { router: RouterId(1) }).unwrap();
        r.register("lmp2", EntityKind::Lmp { router: RouterId(2) }).unwrap();
        assert_eq!(r.lmps().len(), 2);
    }
}
