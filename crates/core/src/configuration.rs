//! Configuration instantiation, reuse and teardown.
//!
//! "Once a complete configuration has been discovered (i.e. down to the
//! sensor/data level) to fulfill a query's requirements, the Context
//! Server sets up event subscriptions between the CEs involved" (paper,
//! Section 3.2). This module turns a [`ConfigurationPlan`] into live
//! state:
//!
//! * an **instance** per derived plan node — a hosted [`EntityLogic`]
//!   parameterised by the node's binding, addressed by its own GUID;
//! * **subscriptions** wiring each instance to its producers;
//! * a [`Configuration`] record tying everything to the query that asked
//!   for it.
//!
//! Identical sub-graphs are shared between queries when reuse is enabled
//! (the Solar-inspired scalability feature the paper adopts): an
//! instance is keyed by its CE, its binding and what feeds each of its
//! inputs, and reference-counted, so two applications asking for the
//! path between Bob and John drive one `pathCE` instance, not two.
//! Experiment E8 ablates exactly this flag.

use std::fmt::Write as _;
use std::sync::Arc;

use sci_event::bus::SubId;
use sci_event::{EventMediator, Topic};
use sci_types::{ContextType, EventSeq, Guid, HashMap, Metadata, SciError, SciResult};

use crate::logic::{EntityLogic, LogicFactory};
use crate::resolver::{ConfigurationPlan, Need, NodeKind};

/// A hosted logic instance for one configuration node. Its input
/// subscriptions are the bus's record of them, held under the
/// instance's GUID ([`EventBus::subscriptions_of`](sci_event::EventBus::subscriptions_of)).
pub struct InstanceState {
    /// The instance's own GUID (events it emits use this as source).
    pub instance: Guid,
    /// The registered CE this instance embodies.
    pub ce: Guid,
    /// Per-configuration parameters.
    pub binding: Metadata,
    /// How many live configurations use this instance.
    pub refcount: usize,
    /// The behaviour.
    pub logic: Box<dyn EntityLogic>,
    /// Next output sequence number.
    pub seq: EventSeq,
    /// The inputs the plan resolved to sources, independent of which
    /// sources feed them at the moment — what adaptation keeps at the
    /// rule's answer as sources come and go. An input fed by another
    /// instance is not listed: it stays derived-fed.
    pub needs: Vec<Need>,
    /// The reuse cache's key for this instance.
    key: CacheKey,
}

/// What feeds one input of a derived instance, as the reuse cache
/// tells instances apart.
#[derive(Clone, PartialEq, Eq, Hash)]
enum Feed {
    /// Sources, whichever the wiring rule names for this type and
    /// subject at the moment (adaptation keeps them at its answer).
    Sources(ContextType, Option<Guid>),
    /// These producers, at least one of them an instance.
    Producers(Vec<Guid>),
}

/// A derived instance's CE, binding ([`binding_key`]) and input feeds:
/// two plan nodes share an instance only if all three are equal, so a
/// plan that reaches a node through another provider gets its own.
type CacheKey = (Guid, String, Vec<Feed>);

/// The topic an input subscribes on: `producer`'s events of its
/// concrete output type `ty` — a semantically equivalent provider
/// emits its own type, not the demanded one; a raw subscription names
/// none — about `subject` if the input is scoped. First wiring and
/// adaptation build their topics here, so they compare equal.
pub(crate) fn input_topic(ty: Option<ContextType>, producer: Guid, subject: Option<Guid>) -> Topic {
    let topic = match ty {
        Some(ty) => Topic::of_type(ty).from(producer),
        None => Topic::from_source(producer),
    };
    match subject {
        Some(subject) => topic.about(subject),
        None => topic,
    }
}

/// The reuse cache's key for a binding: its `k=v` parts in key order,
/// `;`-separated, written into one buffer. (Keys are unique, so key
/// order is a canonical order.)
fn binding_key(binding: &Metadata) -> String {
    let mut parts: Vec<_> = binding.iter().collect();
    parts.sort_unstable_by_key(|&(k, _)| k);
    let mut key = String::new();
    for (i, (k, v)) in parts.into_iter().enumerate() {
        let sep = if i == 0 { "" } else { ";" };
        let _ = write!(key, "{sep}{k}={v}");
    }
    key
}

/// The store of live logic instances, with optional subgraph reuse.
pub struct InstanceStore {
    instances: HashMap<Guid, InstanceState>,
    cache: HashMap<CacheKey, Guid>,
    reuse: bool,
}

impl std::fmt::Debug for InstanceStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InstanceStore")
            .field("instances", &self.instances.len())
            .field("reuse", &self.reuse)
            .finish()
    }
}

/// The live state created for one subscribed query.
#[derive(Clone, Debug)]
pub struct Configuration {
    /// The query this configuration answers.
    pub query_id: Guid,
    /// The subscribing CAA.
    pub owner: Guid,
    /// Producers the CAA is subscribed to (instance GUIDs, or source CE
    /// GUIDs when the demand resolved directly to sensors), in the order
    /// they were wired.
    pub root_producers: Vec<Guid>,
    /// Derived instances this configuration holds a reference on.
    pub instances: Vec<Guid>,
    /// The CAA's own subscriptions.
    pub caa_subs: Vec<SubId>,
    /// Whether the paper's "one-time subscription" mode applies.
    pub one_time: bool,
    /// The plan as first resolved, shared with every configuration
    /// attached to it. Its derived nodes and the edges between them
    /// stand for the configuration's life; its source leaves are the
    /// sources of that moment — the bus holds the current ones
    /// ([`ContextServer::sources_of`](crate::context_server::ContextServer::sources_of)).
    pub plan: Arc<ConfigurationPlan>,
    /// What the query asked for at the root of the plan (`None` for a
    /// raw `Kind`/`Named` subscription): its subject scopes the
    /// application's own subscriptions, and see
    /// [`Configuration::source_need`].
    pub need: Option<Need>,
    /// Quality-of-context contract: maximum acceptable event age at
    /// delivery time, if the query demanded one (`qoc-max-age-us`).
    pub max_age: Option<sci_types::VirtualDuration>,
}

impl Configuration {
    /// The need the application itself consumes from sources: the root
    /// demand, when the plan resolved it straight to sensors. With a
    /// derived CE at the root the application is fed by that instance,
    /// and stays so.
    pub fn source_need(&self) -> Option<&Need> {
        self.need.as_ref().filter(|_| self.instances.is_empty())
    }
}

impl InstanceStore {
    /// Creates a store; `reuse` enables subgraph sharing.
    pub fn new(reuse: bool) -> Self {
        InstanceStore {
            instances: HashMap::default(),
            cache: HashMap::default(),
            reuse,
        }
    }

    /// Whether reuse is enabled.
    pub fn reuse_enabled(&self) -> bool {
        self.reuse
    }

    /// Number of live instances.
    pub fn len(&self) -> usize {
        self.instances.len()
    }

    /// Returns `true` when no instances are live.
    pub fn is_empty(&self) -> bool {
        self.instances.is_empty()
    }

    /// Looks up an instance.
    pub fn get(&self, instance: Guid) -> Option<&InstanceState> {
        self.instances.get(&instance)
    }

    /// Mutable lookup (the Context Server dispatches events through
    /// this).
    pub fn get_mut(&mut self, instance: Guid) -> Option<&mut InstanceState> {
        self.instances.get_mut(&instance)
    }

    /// Returns `true` if the GUID names a live instance.
    pub fn contains(&self, instance: Guid) -> bool {
        self.instances.contains_key(&instance)
    }

    /// Iterates over live instances.
    pub fn iter(&self) -> impl Iterator<Item = &InstanceState> {
        self.instances.values()
    }

    /// Instantiates a plan: creates (or reuses) instances bottom-up and
    /// wires their input subscriptions through the mediator.
    ///
    /// Returns the configuration record; the caller states the root
    /// `need` and adds the CAA's own subscriptions to `caa_subs`.
    ///
    /// # Errors
    ///
    /// Returns [`SciError::Internal`] if a derived node's CE has no
    /// registered [`LogicFactory`].
    #[allow(clippy::too_many_arguments)]
    pub fn instantiate(
        &mut self,
        plan: impl Into<Arc<ConfigurationPlan>>,
        query_id: Guid,
        owner: Guid,
        one_time: bool,
        mediator: &mut EventMediator,
        ids: &mut sci_types::guid::GuidGenerator,
        factories: &HashMap<Guid, LogicFactory>,
    ) -> SciResult<Configuration> {
        let plan = plan.into();
        // node index → the GUID events from that node carry.
        let mut producer_guid: Vec<Guid> = vec![Guid::NIL; plan.nodes.len()];
        let mut used_instances = Vec::new();

        for (idx, node) in plan.nodes.iter().enumerate() {
            match node.kind {
                NodeKind::Source => {
                    // Sources are the registered CEs themselves.
                    producer_guid[idx] = node.ce;
                }
                NodeKind::Derived => {
                    let source = |&p: &usize| plan.nodes[p].kind == NodeKind::Source;
                    let feeds: Vec<Feed> = (node.inputs.iter())
                        .map(|edge| {
                            if edge.producers.iter().all(source) {
                                Feed::Sources(edge.ty.clone(), edge.subject)
                            } else {
                                let producers = edge.producers.iter().map(|&p| producer_guid[p]);
                                Feed::Producers(producers.collect())
                            }
                        })
                        .collect();
                    let key = (node.ce, binding_key(&node.binding), feeds);
                    if self.reuse {
                        if let Some(&existing) = self.cache.get(&key) {
                            let state = self.instances.get_mut(&existing).ok_or_else(|| {
                                SciError::Internal("reuse cache points at a dead instance".into())
                            })?;
                            state.refcount += 1;
                            producer_guid[idx] = existing;
                            used_instances.push(existing);
                            continue;
                        }
                    }
                    let factory = factories.get(&node.ce).ok_or_else(|| {
                        SciError::Internal(format!(
                            "no logic registered for derived CE {}",
                            node.ce
                        ))
                    })?;
                    let instance = ids.next_guid();
                    let mut needs = Vec::new();
                    for edge in &node.inputs {
                        let need = Need {
                            ty: edge.ty.clone(),
                            subject: edge.subject,
                            predicates: Vec::new(),
                        };
                        if edge.producers.iter().all(source) && !needs.contains(&need) {
                            needs.push(need);
                        }
                        for &p in &edge.producers {
                            debug_assert!(p < idx, "children precede parents");
                            let ty = Some(plan.nodes[p].output.clone());
                            let topic = input_topic(ty, producer_guid[p], edge.subject);
                            mediator.subscribe(instance, topic, false);
                        }
                    }
                    if self.reuse {
                        self.cache.insert(key.clone(), instance);
                    }
                    self.instances.insert(
                        instance,
                        InstanceState {
                            instance,
                            ce: node.ce,
                            binding: node.binding.clone(),
                            refcount: 1,
                            logic: (factory)(),
                            seq: EventSeq::FIRST,
                            needs,
                            key,
                        },
                    );
                    producer_guid[idx] = instance;
                    used_instances.push(instance);
                }
            }
        }

        Ok(Configuration {
            query_id,
            owner,
            root_producers: plan.roots.iter().map(|&r| producer_guid[r]).collect(),
            instances: used_instances,
            caa_subs: Vec::new(),
            one_time,
            plan,
            need: None,
            max_age: None,
        })
    }

    /// Admits a query whose need the live configuration `live` already
    /// answers: takes one more reference on each of its instances, in
    /// order, and shares its plan — [`InstanceStore::teardown`]'s
    /// mirror. Nothing is planned, wired or created; the caller states
    /// the root `need` and adds the CAA's own subscriptions.
    pub fn attach(
        &mut self,
        live: &Configuration,
        query_id: Guid,
        owner: Guid,
        one_time: bool,
    ) -> Configuration {
        for instance in &live.instances {
            if let Some(state) = self.instances.get_mut(instance) {
                state.refcount += 1;
            }
        }
        Configuration {
            query_id,
            owner,
            root_producers: live.root_producers.clone(),
            instances: live.instances.clone(),
            caa_subs: Vec::new(),
            one_time,
            plan: Arc::clone(&live.plan),
            need: None,
            max_age: None,
        }
    }

    /// Releases a configuration's references: unsubscribes the CAA and
    /// drops instances whose refcount reaches zero (purging their input
    /// subscriptions). Returns the number of instances destroyed.
    pub fn teardown(&mut self, config: &Configuration, mediator: &mut EventMediator) -> usize {
        for &sub in &config.caa_subs {
            // Already-consumed one-time subscriptions are gone; ignore.
            let _ = mediator.unsubscribe(sub);
        }
        let mut destroyed = 0;
        for &instance in &config.instances {
            let Some(state) = self.instances.get_mut(&instance) else {
                continue;
            };
            state.refcount -= 1;
            if state.refcount == 0 {
                if let Some(state) = self.instances.remove(&instance) {
                    mediator.purge_entity(instance);
                    self.cache.remove(&state.key);
                    destroyed += 1;
                }
            }
        }
        destroyed
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::logic::{factory, ObjLocationLogic, PathLogic};
    use crate::profile_manager::ProfileManager;
    use crate::resolver::{plan_configuration, Demand};
    use sci_location::floorplan::capa_level10;
    use sci_query::Predicate;
    use sci_types::guid::GuidGenerator;
    use sci_types::HashSet;
    use sci_types::{ContextValue, EntityKind, PortSpec, Profile};

    struct Fixture {
        pm: ProfileManager,
        factories: HashMap<Guid, LogicFactory>,
        mediator: EventMediator,
        ids: GuidGenerator,
        path_ce: Guid,
        obj_loc: Guid,
        doors: Vec<Guid>,
    }

    fn fixture() -> Fixture {
        let plan = capa_level10();
        let mut pm = ProfileManager::new();
        let mut factories: HashMap<Guid, LogicFactory> = HashMap::default();
        let path_ce = Guid::from_u128(0x100);
        pm.insert(
            Profile::builder(path_ce, EntityKind::Software, "pathCE")
                .input(PortSpec::new("from", ContextType::Location))
                .input(PortSpec::new("to", ContextType::Location))
                .output(PortSpec::new("path", ContextType::Path))
                .build(),
        )
        .unwrap();
        let p = plan.clone();
        factories.insert(path_ce, factory(move || PathLogic::new(p.clone())));
        let obj_loc = Guid::from_u128(0x200);
        pm.insert(
            Profile::builder(obj_loc, EntityKind::Software, "objLocationCE")
                .input(PortSpec::new("presence", ContextType::Presence))
                .output(PortSpec::new("location", ContextType::Location))
                .build(),
        )
        .unwrap();
        let p = plan.clone();
        factories.insert(obj_loc, factory(move || ObjLocationLogic::new(p.clone())));
        let doors: Vec<Guid> = (0..2)
            .map(|i| {
                let id = Guid::from_u128(0x300 + i);
                pm.insert(
                    Profile::builder(id, EntityKind::Device, format!("door-{i}"))
                        .output(PortSpec::new("presence", ContextType::Presence))
                        .build(),
                )
                .unwrap();
                id
            })
            .collect();
        Fixture {
            pm,
            factories,
            mediator: EventMediator::new(),
            ids: GuidGenerator::seeded(77),
            path_ce,
            obj_loc,
            doors,
        }
    }

    fn path_plan(f: &Fixture, bob: Guid, john: Guid) -> ConfigurationPlan {
        plan_configuration(
            &f.pm,
            &Demand::of(ContextType::Path),
            &[
                Predicate::eq("from", ContextValue::Id(bob)),
                Predicate::eq("to", ContextValue::Id(john)),
            ],
            &HashSet::default(),
        )
        .unwrap()
    }

    #[test]
    fn instantiation_wires_subscriptions() {
        let mut f = fixture();
        let (bob, john) = (Guid::from_u128(0xb0b), Guid::from_u128(0x70e));
        let plan = path_plan(&f, bob, john);
        let mut store = InstanceStore::new(true);
        let config = store
            .instantiate(
                &plan,
                Guid::from_u128(1),
                Guid::from_u128(2),
                false,
                &mut f.mediator,
                &mut f.ids,
                &f.factories,
            )
            .unwrap();
        // 1 pathCE + 2 objLocation instances.
        assert_eq!(store.len(), 3);
        assert_eq!(config.instances.len(), 3);
        assert_eq!(config.root_producers.len(), 1);
        // pathCE has 2 input subs (one per objLocation), each objLocation
        // has |doors| subs.
        let bus = f.mediator.bus();
        let held = |i: &InstanceState| bus.subscriptions_of(i.instance).len();
        let total_subs: usize = store.iter().map(held).sum();
        assert_eq!(total_subs, 2 + 2 * f.doors.len());
        assert_eq!(bus.len(), total_subs);
        let mut sources: Vec<Guid> = (bus.iter().filter_map(|v| v.topic.source()))
            .filter(|&source| !store.contains(source))
            .collect();
        sources.sort();
        sources.dedup();
        assert_eq!(sources, f.doors);
        assert_eq!(config.plan.output, ContextType::Path);
        let _ = (f.path_ce, f.obj_loc);
    }

    #[test]
    fn reuse_shares_identical_subgraphs() {
        let mut f = fixture();
        let (bob, john) = (Guid::from_u128(0xb0b), Guid::from_u128(0x70e));
        let plan = path_plan(&f, bob, john);
        let mut store = InstanceStore::new(true);
        let c1 = store
            .instantiate(
                &plan,
                Guid::from_u128(1),
                Guid::from_u128(11),
                false,
                &mut f.mediator,
                &mut f.ids,
                &f.factories,
            )
            .unwrap();
        let c2 = store
            .instantiate(
                &plan,
                Guid::from_u128(2),
                Guid::from_u128(12),
                false,
                &mut f.mediator,
                &mut f.ids,
                &f.factories,
            )
            .unwrap();
        assert_eq!(store.len(), 3, "second query created no new instances");
        assert_eq!(c1.root_producers, c2.root_producers);
        // Teardown of one keeps the shared instances alive for the other.
        assert_eq!(store.teardown(&c1, &mut f.mediator), 0);
        assert_eq!(store.len(), 3);
        assert_eq!(store.teardown(&c2, &mut f.mediator), 3);
        assert!(store.is_empty());
        assert!(f.mediator.bus().is_empty(), "all subscriptions cleaned up");
    }

    #[test]
    fn attach_shares_a_live_configuration() {
        let mut f = fixture();
        let plan = path_plan(&f, Guid::from_u128(0xb0b), Guid::from_u128(0x70e));
        let mut store = InstanceStore::new(true);
        let c1 = store
            .instantiate(
                plan,
                Guid::from_u128(1),
                Guid::from_u128(11),
                false,
                &mut f.mediator,
                &mut f.ids,
                &f.factories,
            )
            .unwrap();
        let subs = f.mediator.bus().len();
        let c2 = store.attach(&c1, Guid::from_u128(2), Guid::from_u128(12), true);
        assert_eq!(
            (store.len(), f.mediator.bus().len()),
            (3, subs),
            "nothing new"
        );
        assert_eq!(c2.instances, c1.instances);
        assert_eq!(c2.root_producers, c1.root_producers);
        assert!(Arc::ptr_eq(&c1.plan, &c2.plan), "one plan, shared");
        assert!(c2.one_time && c2.caa_subs.is_empty());
        assert!(store.iter().all(|state| state.refcount == 2));
        // Either query's teardown leaves the other's instances live.
        assert_eq!(store.teardown(&c1, &mut f.mediator), 0);
        assert_eq!(store.teardown(&c2, &mut f.mediator), 3);
        assert!(store.is_empty());
        assert!(f.mediator.bus().is_empty());
    }

    #[test]
    fn no_reuse_duplicates_subgraphs() {
        let mut f = fixture();
        let (bob, john) = (Guid::from_u128(0xb0b), Guid::from_u128(0x70e));
        let plan = path_plan(&f, bob, john);
        let mut store = InstanceStore::new(false);
        let c1 = store
            .instantiate(
                &plan,
                Guid::from_u128(1),
                Guid::from_u128(11),
                false,
                &mut f.mediator,
                &mut f.ids,
                &f.factories,
            )
            .unwrap();
        let _c2 = store
            .instantiate(
                &plan,
                Guid::from_u128(2),
                Guid::from_u128(12),
                false,
                &mut f.mediator,
                &mut f.ids,
                &f.factories,
            )
            .unwrap();
        assert_eq!(store.len(), 6, "reuse disabled: everything duplicated");
        assert_eq!(store.teardown(&c1, &mut f.mediator), 3);
        assert_eq!(store.len(), 3);
    }

    #[test]
    fn different_subjects_do_not_share() {
        let mut f = fixture();
        let (bob, john, eve) = (
            Guid::from_u128(0xb0b),
            Guid::from_u128(0x70e),
            Guid::from_u128(0xe5e),
        );
        let mut store = InstanceStore::new(true);
        let p1 = path_plan(&f, bob, john);
        store
            .instantiate(
                &p1,
                Guid::from_u128(1),
                Guid::from_u128(11),
                false,
                &mut f.mediator,
                &mut f.ids,
                &f.factories,
            )
            .unwrap();
        let p2 = path_plan(&f, bob, eve);
        store
            .instantiate(
                &p2,
                Guid::from_u128(2),
                Guid::from_u128(12),
                false,
                &mut f.mediator,
                &mut f.ids,
                &f.factories,
            )
            .unwrap();
        // Shares objLocation(bob) but not objLocation(john)/objLocation(eve)
        // or the differently-bound pathCE.
        assert_eq!(store.len(), 5);
    }

    #[test]
    fn missing_factory_is_an_error() {
        let mut f = fixture();
        f.factories.clear();
        let plan = path_plan(&f, Guid::from_u128(1), Guid::from_u128(2));
        let mut store = InstanceStore::new(true);
        let err = store
            .instantiate(
                &plan,
                Guid::from_u128(1),
                Guid::from_u128(2),
                false,
                &mut f.mediator,
                &mut f.ids,
                &f.factories,
            )
            .unwrap_err();
        assert!(matches!(err, SciError::Internal(_)));
    }
}
