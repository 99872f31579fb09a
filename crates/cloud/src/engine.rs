//! The discrete-event cloud engine.
//!
//! [`Cloud`] owns the virtual clock, the live resource records, the
//! per-provider rate limiters, the fault injector and the activity log.
//! Clients [`Cloud::submit`] operations (which are schema-checked
//! synchronously, like a real API front door) and then [`Cloud::step`] the
//! clock forward; each step completes the earliest pending operation,
//! applying its effect — or failing it with a provider-style error if a
//! cloud-side constraint is violated (§3.2) or a fault was injected.
//!
//! Everything is deterministic under the construction seed.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap, HashMap};
use std::sync::Arc;

use cloudless_obs::{Event, NullRecorder, Recorder};
use cloudless_types::{
    Attrs, Provider, Region, ResourceId, ResourceTypeName, SimDuration, SimTime, Value,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use crate::activity::{ActivityKind, ActivityLog, Principal};
use crate::api::{ApiError, ApiOp, ApiRequest, CloudError, OpCompletion, OpId, OpOutcome};
use crate::catalog::Catalog;
use crate::constraints::{self, PendingResource, StateView};
use crate::faults::{FaultOutcome, FaultPlan};
use crate::latency::{LatencyModel, TokenBucket};

/// One live resource in the cloud.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResourceRecord {
    pub id: ResourceId,
    pub rtype: ResourceTypeName,
    pub region: Region,
    /// Full attribute set, including computed attributes.
    pub attrs: Attrs,
    pub created_at: SimTime,
    pub updated_at: SimTime,
}

/// Rate-limit settings for one provider.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RateLimit {
    pub burst: u32,
    pub per_sec: f64,
}

impl RateLimit {
    /// Azure-Resource-Manager-ish defaults: modest burst, ~10 calls/sec.
    pub fn standard() -> Self {
        RateLimit {
            burst: 20,
            per_sec: 10.0,
        }
    }

    /// A tight limit for throttling experiments.
    pub fn tight() -> Self {
        RateLimit {
            burst: 5,
            per_sec: 2.0,
        }
    }
}

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct CloudConfig {
    pub catalog: Catalog,
    pub latency: LatencyModel,
    pub faults: FaultPlan,
    /// Seed for the dedicated fault RNG. Fault rolls draw from their own
    /// stream so a fault schedule is a pure function of this seed and the
    /// sequence of mutation ops — independent of how many latency samples
    /// the latency model happens to draw. `None` derives the stream from
    /// the construction seed.
    pub fault_seed: Option<u64>,
    /// Per-provider rate limit; `None` disables throttling.
    pub rate_limit: Option<RateLimit>,
    /// Quota overrides per resource type (otherwise schema defaults apply).
    pub quota_overrides: BTreeMap<ResourceTypeName, u32>,
}

impl Default for CloudConfig {
    fn default() -> Self {
        CloudConfig {
            catalog: Catalog::standard(),
            latency: LatencyModel::default(),
            faults: FaultPlan::none(),
            fault_seed: None,
            rate_limit: Some(RateLimit::standard()),
            quota_overrides: BTreeMap::new(),
        }
    }
}

impl CloudConfig {
    /// Exact latencies, no faults, no rate limit — for tests that assert
    /// precise virtual timings.
    pub fn exact() -> Self {
        CloudConfig {
            latency: LatencyModel::exact(),
            faults: FaultPlan::none(),
            rate_limit: None,
            ..CloudConfig::default()
        }
    }
}

/// Incremental indexes over the live records, so per-create admission
/// checks are map probes instead of full-state scans (quota counting and
/// unique-name enforcement both fire on every create — scanning makes an
/// apply quadratic in the deployment size).
#[derive(Debug, Default)]
struct LiveIndex {
    /// rtype → region → live count, for quota admission.
    counts: HashMap<ResourceTypeName, HashMap<Region, u32>>,
    /// rtype → unique-name value → ids carrying it. Only populated for the
    /// globally-unique-name types (see [`constraints::unique_name_attr`]).
    names: HashMap<String, HashMap<String, BTreeSet<ResourceId>>>,
}

impl LiveIndex {
    fn build(records: &BTreeMap<ResourceId, ResourceRecord>) -> Self {
        let mut idx = LiveIndex::default();
        for rec in records.values() {
            idx.insert(rec);
        }
        idx
    }

    fn insert(&mut self, rec: &ResourceRecord) {
        *self
            .counts
            .entry(rec.rtype.clone())
            .or_default()
            .entry(rec.region.clone())
            .or_insert(0) += 1;
        if let Some(name) = Self::unique_name(rec) {
            self.names
                .entry(rec.rtype.as_str().to_owned())
                .or_default()
                .entry(name.to_owned())
                .or_default()
                .insert(rec.id.clone());
        }
    }

    fn remove(&mut self, rec: &ResourceRecord) {
        if let Some(c) = self
            .counts
            .get_mut(&rec.rtype)
            .and_then(|by_region| by_region.get_mut(&rec.region))
        {
            *c = c.saturating_sub(1);
        }
        if let Some(name) = Self::unique_name(rec) {
            if let Some(by_name) = self.names.get_mut(rec.rtype.as_str()) {
                if let Some(ids) = by_name.get_mut(name) {
                    ids.remove(&rec.id);
                    if ids.is_empty() {
                        by_name.remove(name);
                    }
                }
            }
        }
    }

    /// Live instances of `rtype` in `region`.
    fn count(&self, rtype: &ResourceTypeName, region: &Region) -> u32 {
        self.counts
            .get(rtype)
            .and_then(|by_region| by_region.get(region))
            .copied()
            .unwrap_or(0)
    }

    fn unique_name(rec: &ResourceRecord) -> Option<&str> {
        let (attr, _) = constraints::unique_name_attr(rec.rtype.as_str())?;
        rec.attrs.get(attr)?.as_str()
    }
}

/// An operation in flight.
#[derive(Debug, Clone)]
struct Pending {
    request: ApiRequest,
    submitted_at: SimTime,
    /// When the provider actually begins executing (after rate-limit
    /// admission). Deadline clocks should start here, not at submission.
    started_at: SimTime,
    completes_at: SimTime,
    fault: FaultOutcome,
}

/// Per-provider API call accounting (experiment E5's cost metric).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ApiCallStats {
    pub reads: u64,
    pub mutations: u64,
}

impl ApiCallStats {
    pub fn total(&self) -> u64 {
        self.reads + self.mutations
    }
}

/// The simulated multi-cloud.
pub struct Cloud {
    config: CloudConfig,
    now: SimTime,
    records: BTreeMap<ResourceId, ResourceRecord>,
    /// Kept in sync with `records` by every mutation path.
    live: LiveIndex,
    buckets: BTreeMap<Provider, TokenBucket>,
    queue: BinaryHeap<Reverse<(SimTime, OpId)>>,
    pending: BTreeMap<OpId, Pending>,
    log: ActivityLog,
    rng: StdRng,
    /// Dedicated stream for fault rolls (see [`CloudConfig::fault_seed`]):
    /// the k-th mutation op always sees the k-th draw, whatever the latency
    /// model or a mid-run [`Cloud::set_fault_plan`] does.
    fault_rng: StdRng,
    next_op: u64,
    next_resource: u64,
    /// How often [`Cloud::import_records`] replaced the records.
    imports: u64,
    calls: BTreeMap<Provider, ApiCallStats>,
    /// Observability sink. The default [`NullRecorder`] drops everything,
    /// so recording is strictly opt-in and never perturbs determinism.
    obs: Arc<dyn Recorder>,
}

impl Cloud {
    pub fn new(config: CloudConfig, seed: u64) -> Self {
        let buckets = Provider::ALL
            .iter()
            .map(|&p| {
                let b = match config.rate_limit {
                    Some(rl) => TokenBucket::new(rl.burst, rl.per_sec),
                    None => TokenBucket::unlimited(),
                };
                (p, b)
            })
            .collect();
        let fault_seed = config.fault_seed.unwrap_or(seed ^ 0xFA17_5EED);
        Cloud {
            config,
            now: SimTime::ZERO,
            records: BTreeMap::new(),
            live: LiveIndex::default(),
            buckets,
            queue: BinaryHeap::new(),
            pending: BTreeMap::new(),
            log: ActivityLog::new(),
            rng: StdRng::seed_from_u64(seed),
            fault_rng: StdRng::seed_from_u64(fault_seed),
            next_op: 0,
            next_resource: 0,
            imports: 0,
            calls: BTreeMap::new(),
            obs: Arc::new(NullRecorder),
        }
    }

    /// Install an observability recorder (events for submit/complete/
    /// cancel plus queue-wait and latency metrics flow into it).
    pub fn set_recorder(&mut self, recorder: Arc<dyn Recorder>) {
        self.obs = recorder;
    }

    /// The installed recorder (a [`NullRecorder`] unless one was set).
    pub fn recorder(&self) -> &Arc<dyn Recorder> {
        &self.obs
    }

    /// Swap the active fault plan mid-run (e.g. an outage storm starting or
    /// clearing). The fault RNG stream is untouched, so a scenario that
    /// toggles plans at fixed points in its op sequence stays
    /// byte-reproducible.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.config.faults = plan;
    }

    /// Re-arm the fault stream from a fresh seed, independent of how many
    /// fault rolls have been consumed so far.
    pub fn set_fault_seed(&mut self, seed: u64) {
        self.fault_rng = StdRng::seed_from_u64(seed);
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Advance the clock without completing anything (no-op if `t` is in the
    /// past). Used by pollers that wake up on a schedule.
    pub fn advance_to(&mut self, t: SimTime) {
        if t > self.now {
            self.now = t;
        }
    }

    /// The catalog in use.
    pub fn catalog(&self) -> &Catalog {
        &self.config.catalog
    }

    /// The activity log (§3.5 observability).
    pub fn activity(&self) -> &ActivityLog {
        &self.log
    }

    /// How many times [`Cloud::import_records`] has replaced the records:
    /// the one change to them that no activity-log entry names.
    pub fn imports(&self) -> u64 {
        self.imports
    }

    /// Per-provider API call statistics.
    pub fn api_calls(&self, p: Provider) -> ApiCallStats {
        self.calls.get(&p).copied().unwrap_or_default()
    }

    /// Total API calls across providers.
    pub fn total_api_calls(&self) -> u64 {
        self.calls.values().map(ApiCallStats::total).sum()
    }

    /// God-view read of live state — for tests and experiment harnesses
    /// only; production paths must use `Read`/`List` ops, which are
    /// rate-limited and counted.
    pub fn records(&self) -> &BTreeMap<ResourceId, ResourceRecord> {
        &self.records
    }

    /// Number of in-flight operations.
    pub fn in_flight(&self) -> usize {
        self.pending.len()
    }

    /// Time the next pending operation completes, if any.
    pub fn next_completion_at(&self) -> Option<SimTime> {
        self.queue.peek().map(|Reverse((t, _))| *t)
    }

    /// When an in-flight op begins executing at the provider (after
    /// rate-limit admission), if it is still pending. Clients that enforce
    /// deadlines should measure from here so that throttling-induced queue
    /// time does not count against the op.
    pub fn op_started_at(&self, op: OpId) -> Option<SimTime> {
        self.pending.get(&op).map(|p| p.started_at)
    }

    /// Cancel an in-flight operation: it is dropped without executing — no
    /// effect is applied, nothing is logged, and its completion will never
    /// be delivered by [`Cloud::step`]. Returns `true` if the op was
    /// actually pending. Models a client abandoning a hung request; the
    /// simulated provider rolls the work back cleanly.
    pub fn cancel(&mut self, op: OpId) -> bool {
        let was_pending = self.pending.remove(&op).is_some();
        if was_pending {
            self.drop_stale_queue_heads();
            self.obs.counter("cloud.ops_cancelled", 1);
            if self.obs.enabled() {
                self.obs
                    .record(Event::instant("cloud", "cancel", self.now).field("op_id", op.0));
            }
        }
        was_pending
    }

    /// Pop completion-queue entries whose op has been cancelled, so the
    /// head (and [`Cloud::next_completion_at`]) always refers to a live op.
    fn drop_stale_queue_heads(&mut self) {
        while let Some(Reverse((_, id))) = self.queue.peek() {
            if self.pending.contains_key(id) {
                break;
            }
            self.queue.pop();
        }
    }

    // ------------------------------------------------------------------
    // Submission
    // ------------------------------------------------------------------

    /// Submit an operation. Schema problems are rejected synchronously (the
    /// API front door); everything else completes asynchronously via
    /// [`Cloud::step`]. This is [`Cloud::submit_batch`] of one.
    pub fn submit(&mut self, request: ApiRequest) -> Result<OpId, ApiError> {
        let mut results = self.submit_batch(vec![request]);
        results.pop().expect("one result per request")
    }

    /// Submit the operations collected in one scheduler tick, in order:
    /// admission order and RNG draw order are the requests' order, so
    /// splitting a batch differently never changes a simulated outcome.
    /// Counter updates are coalesced into one delta per counter, which is
    /// what the deploy executor wants when it releases a whole wave of
    /// ready nodes at once.
    pub fn submit_batch(&mut self, requests: Vec<ApiRequest>) -> Vec<Result<OpId, ApiError>> {
        let mut out = Vec::with_capacity(requests.len());
        let mut submitted = 0u64;
        let mut throttled = 0u64;
        let record = self.obs.enabled();
        for request in requests {
            match self.validate_front_door(&request) {
                Err(e) => out.push(Err(e)),
                Ok(provider) => {
                    let verb = request.op.verb();
                    let (op_id, queue_wait, duration) = self.schedule_op(request, provider);
                    submitted += 1;
                    if queue_wait > SimDuration::ZERO {
                        throttled += 1;
                    }
                    self.obs
                        .observe("cloud.queue_wait_ms", queue_wait.millis() as f64);
                    if record {
                        self.obs.record(
                            Event::instant("cloud", "submit", self.now)
                                .field("op_id", op_id.0)
                                .field("op", verb)
                                .field("provider", provider.prefix())
                                .field("queue_wait_ms", queue_wait.millis())
                                .field("duration_ms", duration.millis()),
                        );
                    }
                    out.push(Ok(op_id));
                }
            }
        }
        if submitted > 0 {
            self.obs.counter("cloud.ops_submitted", submitted);
        }
        if throttled > 0 {
            self.obs.counter("cloud.ops_throttled", throttled);
        }
        out
    }

    /// [`Cloud::submit_batch`], then run the queue dry: per request, in
    /// order, its front-door rejection or its completion. Completes *all*
    /// in-flight work, the batch's or not.
    pub fn settle_batch(
        &mut self,
        requests: Vec<ApiRequest>,
    ) -> Vec<Result<OpCompletion, ApiError>> {
        let submitted = self.submit_batch(requests);
        let mut done: HashMap<OpId, OpCompletion> = self
            .run_until_idle()
            .into_iter()
            .map(|c| (c.op_id, c))
            .collect();
        submitted
            .into_iter()
            .map(|op| op.map(|id| done.remove(&id).expect("submitted op completes")))
            .collect()
    }

    /// Synchronous front-door checks: schema validation for creates and
    /// updates, existence for id-addressed ops. Returns the provider that
    /// will serve the op.
    fn validate_front_door(&self, request: &ApiRequest) -> Result<Provider, ApiError> {
        let provider = self.op_provider(&request.op)?;
        match &request.op {
            ApiOp::Create {
                rtype,
                region,
                attrs,
            } => {
                let schema = self
                    .config
                    .catalog
                    .get(rtype)
                    .ok_or_else(|| ApiError::UnknownType(rtype.clone()))?;
                if !schema.provider.has_region(region) {
                    return Err(ApiError::UnknownRegion {
                        provider: schema.provider,
                        region: region.clone(),
                    });
                }
                Self::validate_attrs(schema, attrs, true)?;
            }
            ApiOp::Update { id, attrs } => {
                let rec = self
                    .records
                    .get(id)
                    .ok_or_else(|| ApiError::NotFound(id.clone()))?;
                let schema = self
                    .config
                    .catalog
                    .get(&rec.rtype)
                    .ok_or_else(|| ApiError::UnknownType(rec.rtype.clone()))?;
                Self::validate_attrs(schema, attrs, false)?;
            }
            ApiOp::Delete { .. } | ApiOp::Read { .. } | ApiOp::List { .. } => {}
        }
        Ok(provider)
    }

    /// Admit a validated op through the rate limiter, roll its latency and
    /// fault, and enqueue its completion. Returns `(op, queue_wait,
    /// duration)`; the caller emits telemetry.
    fn schedule_op(
        &mut self,
        request: ApiRequest,
        provider: Provider,
    ) -> (OpId, SimDuration, SimDuration) {
        // Rate limiting delays the start; latency model sets the duration.
        let bucket = self.buckets.get_mut(&provider).expect("all providers");
        let start = bucket.admit(self.now);
        let mean = self.op_mean_latency(&request.op);
        let mut duration = self.config.latency.sample(mean, &mut self.rng);
        let fault = if request.op.is_read() {
            self.config.faults.roll_read(&mut self.fault_rng)
        } else {
            self.config.faults.roll(&mut self.fault_rng)
        };
        if fault == FaultOutcome::Hang {
            duration = duration.mul_f64(self.config.faults.hang_factor);
        }
        let completes_at = start + duration;

        let stats = self.calls.entry(provider).or_default();
        if request.op.is_read() {
            stats.reads += 1;
        } else {
            stats.mutations += 1;
        }

        let op_id = OpId(self.next_op);
        self.next_op += 1;
        let queue_wait = start.since(self.now);

        self.queue.push(Reverse((completes_at, op_id)));
        self.pending.insert(
            op_id,
            Pending {
                request,
                submitted_at: self.now,
                started_at: start,
                completes_at,
                fault,
            },
        );
        (op_id, queue_wait, duration)
    }

    fn op_provider(&self, op: &ApiOp) -> Result<Provider, ApiError> {
        match op {
            ApiOp::Create { rtype, .. } => self
                .config
                .catalog
                .get(rtype)
                .map(|s| s.provider)
                .ok_or_else(|| ApiError::UnknownType(rtype.clone())),
            ApiOp::Update { id, .. } | ApiOp::Delete { id } | ApiOp::Read { id } => self
                .records
                .get(id)
                .map(|r| {
                    Provider::from_type_prefix(r.rtype.provider_prefix()).unwrap_or(Provider::Aws)
                })
                .ok_or_else(|| ApiError::NotFound(id.clone())),
            ApiOp::List { provider } => Ok(*provider),
        }
    }

    fn op_mean_latency(&self, op: &ApiOp) -> SimDuration {
        match op {
            ApiOp::Create { rtype, .. } => self
                .config
                .catalog
                .get(rtype)
                .map(|s| s.create_latency)
                .unwrap_or(SimDuration::from_secs(10)),
            ApiOp::Update { id, .. } => self.latency_of(id, |s| s.update_latency),
            ApiOp::Delete { id } => self.latency_of(id, |s| s.delete_latency),
            ApiOp::Read { .. } => self.config.latency.read_latency,
            ApiOp::List { .. } => self.config.latency.list_latency,
        }
    }

    fn latency_of(
        &self,
        id: &ResourceId,
        f: impl Fn(&crate::catalog::ResourceSchema) -> SimDuration,
    ) -> SimDuration {
        self.records
            .get(id)
            .and_then(|r| self.config.catalog.get(&r.rtype))
            .map(f)
            .unwrap_or(SimDuration::from_secs(10))
    }

    fn validate_attrs(
        schema: &crate::catalog::ResourceSchema,
        attrs: &Attrs,
        is_create: bool,
    ) -> Result<(), ApiError> {
        for (name, value) in attrs {
            let a = schema.attr(name).ok_or_else(|| ApiError::BadAttribute {
                rtype: schema.rtype.clone(),
                message: format!("property '{name}' is not defined for this type"),
            })?;
            if a.computed {
                return Err(ApiError::BadAttribute {
                    rtype: schema.rtype.clone(),
                    message: format!("property '{name}' is read-only"),
                });
            }
            if !value.is_null() && !a.kind.admits(value) {
                return Err(ApiError::BadAttribute {
                    rtype: schema.rtype.clone(),
                    message: format!(
                        "property '{name}' expects {} but got {}",
                        a.kind,
                        value.kind()
                    ),
                });
            }
        }
        if is_create {
            for req in schema.required_attrs() {
                if !attrs.contains_key(&req.name) || attrs[&req.name].is_null() {
                    return Err(ApiError::MissingAttribute {
                        rtype: schema.rtype.clone(),
                        name: req.name.clone(),
                    });
                }
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Stepping
    // ------------------------------------------------------------------

    /// Complete the earliest pending operation, advancing the clock to its
    /// completion time. Returns `None` when nothing is in flight.
    pub fn step(&mut self) -> Option<OpCompletion> {
        // Skip queue entries whose op was cancelled after scheduling.
        let (at, op_id, pending) = loop {
            let Reverse((at, op_id)) = self.queue.pop()?;
            if let Some(pending) = self.pending.remove(&op_id) {
                break (at, op_id, pending);
            }
        };
        debug_assert_eq!(at, pending.completes_at);
        self.now = self.now.max(at);
        let outcome = self.execute(&pending);

        let ok = outcome.error().is_none();
        self.obs.counter(
            if ok {
                "cloud.ops_ok"
            } else {
                "cloud.ops_failed"
            },
            1,
        );
        self.obs.observe(
            "cloud.op_latency_ms",
            at.since(pending.started_at).millis() as f64,
        );
        if self.obs.enabled() {
            // An enter/exit pair spanning the op's provider-side execution
            // (admission to completion), so traces show ops as bars.
            let span = self.obs.next_span();
            self.obs.record(
                Event::enter("cloud", "op", pending.started_at)
                    .span(span)
                    .field("op_id", op_id.0)
                    .field("op", pending.request.op.verb()),
            );
            self.obs.record(
                Event::exit("cloud", "op", at)
                    .span(span)
                    .field("op_id", op_id.0)
                    .field("ok", ok),
            );
        }

        Some(OpCompletion {
            op_id,
            at,
            submitted_at: pending.submitted_at,
            outcome,
        })
    }

    /// Step until the queue drains; returns all completions in order.
    pub fn run_until_idle(&mut self) -> Vec<OpCompletion> {
        let mut out = Vec::new();
        while let Some(c) = self.step() {
            out.push(c);
        }
        out
    }

    fn execute(&mut self, p: &Pending) -> OpOutcome {
        if p.fault == FaultOutcome::TransientFailure {
            let err = CloudError::transient(
                "InternalServerError",
                "an internal error occurred; please retry the request",
            );
            self.log_failure(p);
            return OpOutcome::Failed(err);
        }
        match &p.request.op {
            ApiOp::Create {
                rtype,
                region,
                attrs,
            } => self.exec_create(p, rtype, region, attrs),
            ApiOp::Update { id, attrs } => self.exec_update(p, id, attrs),
            ApiOp::Delete { id } => self.exec_delete(p, id),
            ApiOp::Read { id } => match self.records.get(id) {
                Some(r) => OpOutcome::ReadOk {
                    id: id.clone(),
                    attrs: r.attrs.clone(),
                    rtype: r.rtype.clone(),
                    region: r.region.clone(),
                },
                None => OpOutcome::Failed(CloudError::constraint(
                    "ResourceNotFound",
                    format!("the resource '{id}' was not found"),
                )),
            },
            ApiOp::List { provider } => {
                let ids: Vec<ResourceId> = self
                    .records
                    .values()
                    .filter(|r| r.rtype.provider_prefix() == provider.prefix())
                    .map(|r| r.id.clone())
                    .collect();
                OpOutcome::Listed { ids }
            }
        }
    }

    fn exec_create(
        &mut self,
        p: &Pending,
        rtype: &ResourceTypeName,
        region: &Region,
        attrs: &Attrs,
    ) -> OpOutcome {
        // Quota check against live state at completion time.
        let quota = self
            .config
            .quota_overrides
            .get(rtype)
            .copied()
            .or_else(|| self.config.catalog.get(rtype).map(|s| s.default_quota))
            .unwrap_or(u32::MAX);
        let live = self.live.count(rtype, region);
        if live >= quota {
            self.log_failure(p);
            return OpOutcome::Failed(CloudError::constraint(
                "QuotaExceeded",
                format!(
                    "operation could not be completed as it results in exceeding approved quota ({quota}) for '{rtype}' in '{region}'"
                ),
            ));
        }
        // Cross-resource constraints (§3.2).
        let view = StateView {
            records: &self.records,
            catalog: &self.config.catalog,
            names: &self.live.names,
        };
        let pending_res = PendingResource {
            rtype,
            region,
            attrs,
            id: None,
        };
        if let Some(err) = constraints::check(&pending_res, &view) {
            self.log_failure(p);
            return OpOutcome::Failed(err);
        }

        // Provision: assign id and computed attributes.
        let id = self.mint_id(rtype);
        let mut full = attrs.clone();
        self.fill_computed(rtype, region, &id, &mut full);
        let record = ResourceRecord {
            id: id.clone(),
            rtype: rtype.clone(),
            region: region.clone(),
            attrs: full.clone(),
            created_at: self.now,
            updated_at: self.now,
        };
        self.live.insert(&record);
        self.records.insert(id.clone(), record);
        self.log.append(
            self.now,
            ActivityKind::Created,
            Principal::new(&p.request.principal),
            rtype.clone(),
            region.clone(),
            Some(id.clone()),
            vec![],
        );
        OpOutcome::Created { id, attrs: full }
    }

    fn exec_update(&mut self, p: &Pending, id: &ResourceId, attrs: &Attrs) -> OpOutcome {
        let Some(existing) = self.records.get(id).cloned() else {
            return OpOutcome::Failed(CloudError::constraint(
                "ResourceNotFound",
                format!("the resource '{id}' was not found"),
            ));
        };
        // Immutable (force_new) properties cannot change in place.
        if let Some(schema) = self.config.catalog.get(&existing.rtype) {
            for (name, value) in attrs {
                if let Some(a) = schema.attr(name) {
                    if a.force_new && existing.attrs.get(name) != Some(value) {
                        self.log_failure(p);
                        return OpOutcome::Failed(CloudError::constraint(
                            "PropertyChangeNotAllowed",
                            format!("changing property '{name}' is not allowed; the resource must be recreated"),
                        ));
                    }
                }
            }
        }
        let mut merged = existing.attrs.clone();
        let mut changed = Vec::new();
        for (k, v) in attrs {
            if v.is_null() {
                // explicit null unsets the property (providers model this as
                // "reset to default")
                if merged.remove(k).is_some() {
                    changed.push(k.clone());
                }
                continue;
            }
            if merged.get(k) != Some(v) {
                changed.push(k.clone());
            }
            merged.insert(k.clone(), v.clone());
        }
        // Constraints re-checked on the merged view.
        let view = StateView {
            records: &self.records,
            catalog: &self.config.catalog,
            names: &self.live.names,
        };
        let pending_res = PendingResource {
            rtype: &existing.rtype,
            region: &existing.region,
            attrs: &merged,
            id: Some(id),
        };
        if let Some(err) = constraints::check(&pending_res, &view) {
            self.log_failure(p);
            return OpOutcome::Failed(err);
        }
        let rec = self.records.get_mut(id).expect("checked above");
        rec.attrs = merged.clone();
        rec.updated_at = self.now;
        let (rtype, region) = (rec.rtype.clone(), rec.region.clone());
        // re-index: the update may have changed a unique-name attribute
        // (counts are unaffected — type and region are immutable)
        let updated = rec.clone();
        self.live.remove(&existing);
        self.live.insert(&updated);
        self.log.append(
            self.now,
            ActivityKind::Updated,
            Principal::new(&p.request.principal),
            rtype,
            region,
            Some(id.clone()),
            changed,
        );
        OpOutcome::Updated {
            id: id.clone(),
            attrs: merged,
        }
    }

    fn exec_delete(&mut self, p: &Pending, id: &ResourceId) -> OpOutcome {
        match self.records.remove(id) {
            Some(rec) => {
                self.live.remove(&rec);
                self.log.append(
                    self.now,
                    ActivityKind::Deleted,
                    Principal::new(&p.request.principal),
                    rec.rtype,
                    rec.region,
                    Some(id.clone()),
                    vec![],
                );
                OpOutcome::Deleted { id: id.clone() }
            }
            None => OpOutcome::Failed(CloudError::constraint(
                "ResourceNotFound",
                format!("the resource '{id}' was not found"),
            )),
        }
    }

    fn log_failure(&mut self, p: &Pending) {
        let (rtype, region, id) = match &p.request.op {
            ApiOp::Create { rtype, region, .. } => (rtype.clone(), region.clone(), None),
            ApiOp::Update { id, .. } | ApiOp::Delete { id } => match self.records.get(id) {
                Some(r) => (r.rtype.clone(), r.region.clone(), Some(id.clone())),
                None => (
                    ResourceTypeName::new("unknown"),
                    Region::new("unknown"),
                    Some(id.clone()),
                ),
            },
            _ => return,
        };
        self.log.append(
            self.now,
            ActivityKind::Failed,
            Principal::new(&p.request.principal),
            rtype,
            region,
            id,
            vec![],
        );
    }

    fn mint_id(&mut self, rtype: &ResourceTypeName) -> ResourceId {
        let initials: String = rtype
            .short_name()
            .split('_')
            .filter_map(|seg| seg.chars().next())
            .collect();
        let n = self.next_resource;
        self.next_resource += 1;
        ResourceId::new(format!("{}-{}-{:04}", rtype.provider_prefix(), initials, n))
    }

    fn fill_computed(
        &mut self,
        rtype: &ResourceTypeName,
        region: &Region,
        id: &ResourceId,
        attrs: &mut Attrs,
    ) {
        let Some(schema) = self.config.catalog.get(rtype) else {
            return;
        };
        let n = self.next_resource; // already advanced past this resource
        let name = attrs
            .get("name")
            .and_then(Value::as_str)
            .unwrap_or(id.as_str())
            .to_owned();
        for a in schema.computed_attrs() {
            let v = match a.name.as_str() {
                "id" => Value::from(id.as_str()),
                "arn" => Value::from(format!(
                    "arn:sim:{}:{}:{}",
                    rtype.provider_prefix(),
                    region,
                    id
                )),
                s if s.contains("ip") => Value::from(format!(
                    "10.{}.{}.{}",
                    (n >> 16) & 255,
                    (n >> 8) & 255,
                    (n & 255).max(4)
                )),
                "endpoint" | "dns_name" | "connection_name" => {
                    Value::from(format!("{name}.{region}.sim.cloud"))
                }
                other => Value::from(format!("{id}-{other}")),
            };
            attrs.insert(a.name.clone(), v);
        }
    }

    // ------------------------------------------------------------------
    // Out-of-band mutation (drift injection, §3.5) and synchronous helpers
    // ------------------------------------------------------------------

    /// Create a resource immediately, bypassing rate limits and latency —
    /// models a legacy script or ClickOps change happening outside the IaC
    /// engine. Constraints still apply. Appears in the activity log.
    pub fn out_of_band_create(
        &mut self,
        principal: &str,
        rtype: &str,
        region: &str,
        attrs: Attrs,
    ) -> Result<ResourceId, CloudError> {
        let rtype = ResourceTypeName::new(rtype);
        let region = Region::new(region);
        let view = StateView {
            records: &self.records,
            catalog: &self.config.catalog,
            names: &self.live.names,
        };
        if let Some(err) = constraints::check(
            &PendingResource {
                rtype: &rtype,
                region: &region,
                attrs: &attrs,
                id: None,
            },
            &view,
        ) {
            return Err(err);
        }
        let id = self.mint_id(&rtype);
        let mut full = attrs;
        self.fill_computed(&rtype, &region, &id, &mut full);
        let record = ResourceRecord {
            id: id.clone(),
            rtype: rtype.clone(),
            region: region.clone(),
            attrs: full,
            created_at: self.now,
            updated_at: self.now,
        };
        self.live.insert(&record);
        self.records.insert(id.clone(), record);
        self.log.append(
            self.now,
            ActivityKind::Created,
            Principal::new(principal),
            rtype,
            region,
            Some(id.clone()),
            vec![],
        );
        Ok(id)
    }

    /// Mutate attributes of a live resource immediately (drift).
    pub fn out_of_band_update(
        &mut self,
        principal: &str,
        id: &ResourceId,
        attrs: Attrs,
    ) -> Result<(), CloudError> {
        let Some(rec) = self.records.get_mut(id) else {
            return Err(CloudError::constraint(
                "ResourceNotFound",
                format!("the resource '{id}' was not found"),
            ));
        };
        let before = rec.clone();
        let mut changed = Vec::new();
        for (k, v) in attrs {
            if rec.attrs.get(&k) != Some(&v) {
                changed.push(k.clone());
            }
            rec.attrs.insert(k, v);
        }
        rec.updated_at = self.now;
        let (rtype, region) = (rec.rtype.clone(), rec.region.clone());
        let after = rec.clone();
        self.live.remove(&before);
        self.live.insert(&after);
        self.log.append(
            self.now,
            ActivityKind::Updated,
            Principal::new(principal),
            rtype,
            region,
            Some(id.clone()),
            changed,
        );
        Ok(())
    }

    /// Delete a live resource immediately (drift).
    pub fn out_of_band_delete(
        &mut self,
        principal: &str,
        id: &ResourceId,
    ) -> Result<(), CloudError> {
        match self.records.remove(id) {
            Some(rec) => {
                self.live.remove(&rec);
                self.log.append(
                    self.now,
                    ActivityKind::Deleted,
                    Principal::new(principal),
                    rec.rtype,
                    rec.region,
                    Some(id.clone()),
                    vec![],
                );
                Ok(())
            }
            None => Err(CloudError::constraint(
                "ResourceNotFound",
                format!("the resource '{id}' was not found"),
            )),
        }
    }

    /// Restore previously-exported records into a fresh cloud (CLI session
    /// persistence). Id-mint counters advance past every imported id so new
    /// resources never collide; the activity log starts empty (imported
    /// history is the session file's business).
    pub fn import_records(&mut self, records: BTreeMap<ResourceId, ResourceRecord>) {
        // advance the resource counter beyond any imported numeric suffix
        for id in records.keys() {
            if let Some(n) = id
                .as_str()
                .rsplit('-')
                .next()
                .and_then(|s| s.parse::<u64>().ok())
            {
                self.next_resource = self.next_resource.max(n + 1);
            }
        }
        self.records = records;
        self.live = LiveIndex::build(&self.records);
        self.imports += 1;
    }

    /// Export live records (CLI session persistence).
    pub fn export_records(&self) -> &BTreeMap<ResourceId, ResourceRecord> {
        &self.records
    }

    /// Submit one op and run the queue dry, returning this op's completion:
    /// [`Cloud::settle_batch`] of one.
    pub fn submit_and_settle(&mut self, request: ApiRequest) -> Result<OpCompletion, ApiError> {
        let mut settled = self.settle_batch(vec![request]);
        settled.pop().expect("one result per request")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudless_types::value::attrs;

    fn cloud() -> Cloud {
        Cloud::new(CloudConfig::exact(), 7)
    }

    fn create_req(rtype: &str, region: &str, a: Attrs) -> ApiRequest {
        ApiRequest::new(
            ApiOp::Create {
                rtype: ResourceTypeName::new(rtype),
                region: Region::new(region),
                attrs: a,
            },
            "test",
        )
    }

    #[test]
    fn create_assigns_id_and_computed_attrs() {
        let mut c = cloud();
        let done = c
            .submit_and_settle(create_req(
                "aws_vpc",
                "us-east-1",
                attrs([("cidr_block", Value::from("10.0.0.0/16"))]),
            ))
            .unwrap();
        match done.outcome {
            OpOutcome::Created { id, attrs } => {
                assert!(id.as_str().starts_with("aws-v-"));
                assert_eq!(attrs.get("id"), Some(&Value::from(id.as_str())));
                assert!(attrs
                    .get("arn")
                    .unwrap()
                    .as_str()
                    .unwrap()
                    .starts_with("arn:sim:aws:"));
                assert_eq!(c.records().len(), 1);
            }
            other => panic!("{other:?}"),
        }
        // create took exactly the schema latency
        assert_eq!(c.now().millis(), 15_000);
    }

    #[test]
    fn submit_batch_is_equivalent_to_sequential_submits() {
        // Same seed, jittered latencies, so RNG draw order is observable:
        // the batch path must consume the RNG exactly as sequential submits
        // would, and produce identical ops and completion times.
        let config = CloudConfig::default();
        let mut seq = Cloud::new(config.clone(), 99);
        let mut bat = Cloud::new(config, 99);
        let reqs = || {
            vec![
                create_req(
                    "aws_vpc",
                    "us-east-1",
                    attrs([("cidr_block", Value::from("10.0.0.0/16"))]),
                ),
                create_req("aws_quantum_computer", "us-east-1", Attrs::new()),
                create_req(
                    "aws_s3_bucket",
                    "us-east-1",
                    attrs([("bucket", Value::from("b"))]),
                ),
                create_req(
                    "gcp_storage_bucket",
                    "us-central1",
                    attrs([("name", Value::from("g"))]),
                ),
            ]
        };
        let seq_results: Vec<Result<OpId, ApiError>> =
            reqs().into_iter().map(|r| seq.submit(r)).collect();
        let bat_results = bat.submit_batch(reqs());
        assert_eq!(seq_results.len(), bat_results.len());
        for (a, b) in seq_results.iter().zip(&bat_results) {
            match (a, b) {
                (Ok(x), Ok(y)) => assert_eq!(x, y),
                (Err(x), Err(y)) => assert_eq!(format!("{x:?}"), format!("{y:?}")),
                other => panic!("divergent results {other:?}"),
            }
        }
        // settle both and compare completion streams
        loop {
            match (seq.step(), bat.step()) {
                (None, None) => break,
                (Some(x), Some(y)) => {
                    assert_eq!(x.op_id, y.op_id);
                    assert_eq!(x.at, y.at);
                    assert_eq!(
                        matches!(x.outcome, OpOutcome::Failed(_)),
                        matches!(y.outcome, OpOutcome::Failed(_))
                    );
                }
                other => panic!("divergent completion streams {other:?}"),
            }
        }
        assert_eq!(seq.now(), bat.now());
        assert_eq!(seq.records().len(), bat.records().len());
    }

    /// `settle_batch` against the loop it replaced in refresh and drift
    /// scans (submit each, run dry, look each op up) under jitter and a
    /// fault storm: the same answer per request and the same final clock.
    /// Settling one request at a time draws the same latencies and faults
    /// but serializes them, so only the per-request fate carries over.
    #[test]
    fn settle_batch_answers_each_request_as_the_hand_loop_did() {
        let config = CloudConfig {
            faults: FaultPlan::storm(),
            ..CloudConfig::default()
        };
        let by_hand = |c: &mut Cloud, requests: Vec<ApiRequest>| {
            let submitted: Vec<_> = requests.into_iter().map(|r| c.submit(r)).collect();
            let done = c.run_until_idle();
            let find = |op| done.iter().find(|d| d.op_id == op).cloned().unwrap();
            submitted
                .into_iter()
                .map(|op| op.map(find))
                .collect::<Vec<_>>()
        };
        let one_by_one = |c: &mut Cloud, requests: Vec<ApiRequest>| {
            let settled = requests.into_iter().map(|r| c.submit_and_settle(r));
            settled.collect::<Vec<_>>()
        };
        let fate = |settled: &Result<OpCompletion, ApiError>| match settled {
            Err(e) => format!("rejected: {e:?}"),
            Ok(done) => format!("failed: {}", done.outcome.error().is_some()),
        };
        let creates = || {
            let bucket = |n: usize| attrs([("bucket", Value::from(format!("b{n}")))]);
            let mut requests: Vec<_> = (0..12)
                .map(|n| create_req("aws_s3_bucket", "us-east-1", bucket(n)))
                .collect();
            // refused at the front door, in the middle of the batch
            requests.insert(
                5,
                create_req("aws_quantum_computer", "us-east-1", Attrs::new()),
            );
            requests
        };
        let follow_ups = |c: &Cloud| {
            let as_test = |op| ApiRequest::new(op, "test");
            let mut requests = vec![as_test(ApiOp::Read {
                id: ResourceId::new("aws-b-gone"),
            })];
            for id in c.records().keys().cloned() {
                requests.push(as_test(ApiOp::Read { id: id.clone() }));
                requests.push(as_test(ApiOp::Delete { id }));
            }
            requests
        };

        let mut batch = Cloud::new(config.clone(), 99);
        let mut hand = Cloud::new(config.clone(), 99);
        let mut serial = Cloud::new(config, 99);
        for round in 0..2 {
            let requests = |c: &Cloud| if round == 0 { creates() } else { follow_ups(c) };
            let settled = batch.settle_batch(requests(&batch));
            let same = requests(&hand);
            assert_eq!(settled, by_hand(&mut hand, same));
            assert_eq!(batch.now(), hand.now());
            assert_eq!(batch.records(), hand.records());
            assert!(
                settled.iter().any(Result::is_err),
                "a rejection in round {round}"
            );
            if round == 0 {
                let fates = |all: &[_]| all.iter().map(fate).collect::<Vec<_>>();
                let same = requests(&serial);
                let serially = one_by_one(&mut serial, same);
                assert_eq!(fates(&settled), fates(&serially));
                assert!(serial.now() > batch.now(), "serial settling takes longer");
            }
        }
        assert!(batch.in_flight() == 0 && batch.now() > SimTime::ZERO);
    }

    #[test]
    fn fault_schedule_is_independent_of_latency_model() {
        // The k-th mutation must see the k-th fault roll whether or not the
        // latency model draws jitter samples — that is the whole point of
        // the dedicated fault stream.
        let outcomes = |jitter: bool| {
            let config = CloudConfig {
                latency: if jitter {
                    LatencyModel::default()
                } else {
                    LatencyModel::exact()
                },
                faults: FaultPlan::storm(),
                fault_seed: Some(7),
                rate_limit: None,
                ..CloudConfig::default()
            };
            let mut c = Cloud::new(config, 1234);
            let ops: Vec<OpId> = (0..40)
                .map(|i| {
                    c.submit(create_req(
                        "aws_s3_bucket",
                        "us-east-1",
                        attrs([("bucket", Value::from(format!("b{i}")))]),
                    ))
                    .expect("admitted")
                })
                .collect();
            let mut failed = std::collections::BTreeSet::new();
            while let Some(done) = c.step() {
                if matches!(done.outcome, OpOutcome::Failed(_)) {
                    failed.insert(done.op_id);
                }
            }
            ops.iter().map(|op| failed.contains(op)).collect::<Vec<_>>()
        };
        let jittered = outcomes(true);
        assert_eq!(jittered, outcomes(false));
        assert!(jittered.iter().any(|&f| f), "storm injected no faults");
    }

    #[test]
    fn front_door_rejects_schema_violations() {
        let mut c = cloud();
        // unknown type
        assert!(matches!(
            c.submit(create_req(
                "aws_quantum_computer",
                "us-east-1",
                Attrs::new()
            )),
            Err(ApiError::UnknownType(_))
        ));
        // unknown region
        assert!(matches!(
            c.submit(create_req(
                "aws_vpc",
                "mars-1",
                attrs([("cidr_block", Value::from("10.0.0.0/16"))])
            )),
            Err(ApiError::UnknownRegion { .. })
        ));
        // missing required attr
        assert!(matches!(
            c.submit(create_req("aws_vpc", "us-east-1", Attrs::new())),
            Err(ApiError::MissingAttribute { .. })
        ));
        // wrong kind
        assert!(matches!(
            c.submit(create_req(
                "aws_vpc",
                "us-east-1",
                attrs([("cidr_block", Value::from(42i64))])
            )),
            Err(ApiError::BadAttribute { .. })
        ));
        // computed attr supplied
        assert!(matches!(
            c.submit(create_req(
                "aws_vpc",
                "us-east-1",
                attrs([
                    ("cidr_block", Value::from("10.0.0.0/16")),
                    ("id", Value::from("vpc-fake"))
                ])
            )),
            Err(ApiError::BadAttribute { .. })
        ));
        // unknown attr
        assert!(matches!(
            c.submit(create_req(
                "aws_vpc",
                "us-east-1",
                attrs([
                    ("cidr_block", Value::from("10.0.0.0/16")),
                    ("flux_capacitor", Value::from(true))
                ])
            )),
            Err(ApiError::BadAttribute { .. })
        ));
    }

    #[test]
    fn constraint_violation_fails_at_completion_not_submit() {
        let mut c = cloud();
        // NIC in westeurope
        let nic = c
            .submit_and_settle(create_req(
                "azure_network_interface",
                "westeurope",
                attrs([
                    ("name", Value::from("n1")),
                    ("location", Value::from("westeurope")),
                ]),
            ))
            .unwrap();
        let nic_id = match nic.outcome {
            OpOutcome::Created { id, .. } => id,
            other => panic!("{other:?}"),
        };
        // VM in eastus referencing it: submit succeeds…
        let op = c
            .submit(create_req(
                "azure_virtual_machine",
                "eastus",
                attrs([
                    ("name", Value::from("vm1")),
                    ("location", Value::from("eastus")),
                    ("nic_ids", Value::from(vec![nic_id.as_str()])),
                ]),
            ))
            .expect("front door accepts");
        // …but completion fails with the misleading provider message
        let completions = c.run_until_idle();
        let done = completions.into_iter().find(|x| x.op_id == op).unwrap();
        let err = done.outcome.error().expect("constraint failure");
        assert_eq!(err.code, "NicNotFound");
        // and the failure is visible in the activity log
        assert!(c
            .activity()
            .all()
            .iter()
            .any(|e| e.kind == ActivityKind::Failed));
    }

    #[test]
    fn update_merges_and_logs_changed_attrs() {
        let mut c = cloud();
        let done = c
            .submit_and_settle(create_req(
                "aws_virtual_machine",
                "us-east-1",
                attrs([
                    ("name", Value::from("web")),
                    ("instance_type", Value::from("t3.micro")),
                ]),
            ))
            .unwrap();
        let id = match done.outcome {
            OpOutcome::Created { id, .. } => id,
            other => panic!("{other:?}"),
        };
        let upd = c
            .submit_and_settle(ApiRequest::new(
                ApiOp::Update {
                    id: id.clone(),
                    attrs: attrs([("instance_type", Value::from("t3.large"))]),
                },
                "test",
            ))
            .unwrap();
        assert!(upd.outcome.is_ok());
        let rec = &c.records()[&id];
        assert_eq!(
            rec.attrs.get("instance_type"),
            Some(&Value::from("t3.large"))
        );
        assert_eq!(rec.attrs.get("name"), Some(&Value::from("web")));
        let last = c.activity().all().last().unwrap();
        assert_eq!(last.kind, ActivityKind::Updated);
        assert_eq!(last.changed_attrs, vec!["instance_type"]);
    }

    #[test]
    fn force_new_attr_cannot_update_in_place() {
        let mut c = cloud();
        let done = c
            .submit_and_settle(create_req(
                "aws_vpc",
                "us-east-1",
                attrs([("cidr_block", Value::from("10.0.0.0/16"))]),
            ))
            .unwrap();
        let id = match done.outcome {
            OpOutcome::Created { id, .. } => id,
            other => panic!("{other:?}"),
        };
        let upd = c
            .submit_and_settle(ApiRequest::new(
                ApiOp::Update {
                    id,
                    attrs: attrs([("cidr_block", Value::from("10.1.0.0/16"))]),
                },
                "test",
            ))
            .unwrap();
        let err = upd.outcome.error().expect("immutable property");
        assert_eq!(err.code, "PropertyChangeNotAllowed");
    }

    #[test]
    fn delete_and_read_lifecycle() {
        let mut c = cloud();
        let done = c
            .submit_and_settle(create_req(
                "gcp_storage_bucket",
                "us-central1",
                attrs([("name", Value::from("logs"))]),
            ))
            .unwrap();
        let id = match done.outcome {
            OpOutcome::Created { id, .. } => id,
            other => panic!("{other:?}"),
        };
        let read = c
            .submit_and_settle(ApiRequest::new(ApiOp::Read { id: id.clone() }, "test"))
            .unwrap();
        assert!(matches!(read.outcome, OpOutcome::ReadOk { .. }));
        let del = c
            .submit_and_settle(ApiRequest::new(ApiOp::Delete { id: id.clone() }, "test"))
            .unwrap();
        assert!(matches!(del.outcome, OpOutcome::Deleted { .. }));
        assert!(c.records().is_empty());
        // read after delete: submit is rejected because the id is gone
        assert!(matches!(
            c.submit(ApiRequest::new(ApiOp::Read { id }, "test")),
            Err(ApiError::NotFound(_))
        ));
    }

    #[test]
    fn quota_enforced() {
        let mut config = CloudConfig::exact();
        config
            .quota_overrides
            .insert(ResourceTypeName::new("aws_vpc"), 2);
        let mut c = Cloud::new(config, 7);
        for i in 0..2 {
            let done = c
                .submit_and_settle(create_req(
                    "aws_vpc",
                    "us-east-1",
                    attrs([("cidr_block", Value::from(format!("10.{i}.0.0/16")))]),
                ))
                .unwrap();
            assert!(done.outcome.is_ok());
        }
        let third = c
            .submit_and_settle(create_req(
                "aws_vpc",
                "us-east-1",
                attrs([("cidr_block", Value::from("10.9.0.0/16"))]),
            ))
            .unwrap();
        assert_eq!(third.outcome.error().unwrap().code, "QuotaExceeded");
        // other regions unaffected
        let other = c
            .submit_and_settle(create_req(
                "aws_vpc",
                "us-west-2",
                attrs([("cidr_block", Value::from("10.9.0.0/16"))]),
            ))
            .unwrap();
        assert!(other.outcome.is_ok());
    }

    #[test]
    fn rate_limit_delays_op_start() {
        let mut config = CloudConfig::exact();
        config.rate_limit = Some(RateLimit {
            burst: 1,
            per_sec: 1.0,
        });
        let mut c = Cloud::new(config, 7);
        // two cheap creates: second must wait ~1s for a token
        for i in 0..2 {
            c.submit(create_req(
                "aws_s3_bucket",
                "us-east-1",
                attrs([("bucket", Value::from(format!("b{i}")))]),
            ))
            .unwrap();
        }
        let completions = c.run_until_idle();
        assert_eq!(completions.len(), 2);
        // bucket create latency is 8s; first completes at 8s, second at 9s
        assert_eq!(completions[0].at.millis(), 8_000);
        assert_eq!(completions[1].at.millis(), 9_000);
    }

    #[test]
    fn out_of_band_drift_is_logged() {
        let mut c = cloud();
        let done = c
            .submit_and_settle(create_req(
                "aws_virtual_machine",
                "us-east-1",
                attrs([("name", Value::from("web"))]),
            ))
            .unwrap();
        let id = match done.outcome {
            OpOutcome::Created { id, .. } => id,
            other => panic!("{other:?}"),
        };
        let log_len = c.activity().len();
        c.out_of_band_update(
            "legacy-script",
            &id,
            attrs([("instance_type", Value::from("m5.4xlarge"))]),
        )
        .unwrap();
        assert_eq!(c.activity().len(), log_len + 1);
        let ev = c.activity().all().last().unwrap();
        assert_eq!(ev.principal.as_str(), "legacy-script");
        assert_eq!(ev.changed_attrs, vec!["instance_type"]);
        // and the record actually changed
        assert_eq!(
            c.records()[&id].attrs.get("instance_type"),
            Some(&Value::from("m5.4xlarge"))
        );
        // delete drift
        c.out_of_band_delete("legacy-script", &id).unwrap();
        assert!(c.records().is_empty());
    }

    #[test]
    fn transient_faults_fail_retryably_and_leave_no_state() {
        let mut config = CloudConfig::exact();
        config.faults = FaultPlan {
            transient_failure_rate: 1.0,
            hang_rate: 0.0,
            hang_factor: 1.0,
            ..FaultPlan::none()
        };
        let mut c = Cloud::new(config, 7);
        let done = c
            .submit_and_settle(create_req(
                "aws_vpc",
                "us-east-1",
                attrs([("cidr_block", Value::from("10.0.0.0/16"))]),
            ))
            .unwrap();
        let err = done.outcome.error().unwrap();
        assert!(err.retryable);
        assert!(c.records().is_empty());
    }

    #[test]
    fn a_failed_read_is_retryable_and_logs_nothing() {
        let mut config = CloudConfig::exact();
        config.faults = FaultPlan {
            read_failure_rate: 1.0,
            ..FaultPlan::none()
        };
        let mut c = Cloud::new(config, 7);
        let done = c
            .submit_and_settle(create_req(
                "aws_s3_bucket",
                "us-east-1",
                attrs([("bucket", Value::from("b"))]),
            ))
            .unwrap();
        let id = match done.outcome {
            OpOutcome::Created { id, .. } => id,
            other => panic!("{other:?}"),
        };
        let logged = c.activity().len();
        let read = ApiRequest::new(ApiOp::Read { id }, "test");
        let done = c.submit_and_settle(read).unwrap();
        assert!(done.outcome.error().is_some_and(|e| e.retryable));
        assert_eq!(c.activity().len(), logged);
    }

    #[test]
    fn reads_are_counted_separately() {
        let mut c = cloud();
        c.submit_and_settle(create_req(
            "aws_s3_bucket",
            "us-east-1",
            attrs([("bucket", Value::from("b"))]),
        ))
        .unwrap();
        c.submit_and_settle(ApiRequest::new(
            ApiOp::List {
                provider: Provider::Aws,
            },
            "scanner",
        ))
        .unwrap();
        let stats = c.api_calls(Provider::Aws);
        assert_eq!(stats.mutations, 1);
        assert_eq!(stats.reads, 1);
        assert_eq!(c.total_api_calls(), 2);
    }

    #[test]
    fn cancelled_op_never_completes_and_leaves_no_state() {
        let mut c = cloud();
        let op1 = c
            .submit(create_req(
                "aws_vpc",
                "us-east-1",
                attrs([("cidr_block", Value::from("10.0.0.0/16"))]),
            ))
            .unwrap();
        let op2 = c
            .submit(create_req(
                "aws_s3_bucket",
                "us-east-1",
                attrs([("bucket", Value::from("b"))]),
            ))
            .unwrap();
        assert_eq!(c.in_flight(), 2);
        assert!(c.op_started_at(op1).is_some());
        assert!(c.cancel(op1));
        assert!(!c.cancel(op1), "double-cancel is a no-op");
        assert_eq!(c.in_flight(), 1);
        // the queue head now refers to the live op only
        let completions = c.run_until_idle();
        assert_eq!(completions.len(), 1);
        assert_eq!(completions[0].op_id, op2);
        // only the bucket exists; the cancelled vpc left nothing behind
        assert_eq!(c.records().len(), 1);
        assert!(c
            .records()
            .values()
            .all(|r| r.rtype.as_str() == "aws_s3_bucket"));
    }

    #[test]
    fn cancel_buried_op_is_skipped_lazily() {
        let mut c = cloud();
        // bucket (8s) completes before vpc (15s): cancel the vpc while it
        // is *buried* under the bucket in the completion queue
        let vpc = c
            .submit(create_req(
                "aws_vpc",
                "us-east-1",
                attrs([("cidr_block", Value::from("10.0.0.0/16"))]),
            ))
            .unwrap();
        c.submit(create_req(
            "aws_s3_bucket",
            "us-east-1",
            attrs([("bucket", Value::from("b"))]),
        ))
        .unwrap();
        assert!(c.cancel(vpc));
        let completions = c.run_until_idle();
        assert_eq!(completions.len(), 1);
        assert_eq!(c.records().len(), 1);
        assert!(c.next_completion_at().is_none());
    }

    #[test]
    fn determinism_under_seed() {
        let run = |seed: u64| {
            let config = CloudConfig {
                faults: FaultPlan::chaotic(),
                ..CloudConfig::default()
            };
            let mut c = Cloud::new(config, seed);
            for i in 0..20 {
                let _ = c.submit(create_req(
                    "aws_s3_bucket",
                    "us-east-1",
                    attrs([("bucket", Value::from(format!("b{i}")))]),
                ));
            }
            c.run_until_idle()
                .into_iter()
                .map(|x| (x.at, x.outcome.is_ok()))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(11), run(11));
        assert_ne!(run(11), run(12));
    }
}
