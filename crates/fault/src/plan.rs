//! Fault plans: which pipeline sites fail, on which frames, how often —
//! all decided by pure arithmetic on `(seed, site, key, unit, attempt)`.

/// A named pipeline stage where faults can be injected (and where the
/// scheduler attributes failures).
///
/// Declaration order is pipeline order: [`FaultLog`](crate::FaultLog)
/// sorts by the discriminant, so logs compare equal across schedules.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// The update stage: frame-spec production and launch planning.
    /// Not an injection target (updates come from user sources), but
    /// foreign panics in update tasks are attributed here.
    Update,
    /// Spatial partitioning inside a sharded structure build.
    Partition,
    /// Acceleration-structure construction (or reuse).
    Build,
    /// One `(camera, SM)` render fragment.
    Fragment,
    /// The per-frame merge of all fragment outcomes.
    Merge,
}

impl FaultSite {
    /// The four sites a [`FaultPlan`] can target.
    pub const INJECTABLE: [FaultSite; 4] = [
        FaultSite::Partition,
        FaultSite::Build,
        FaultSite::Fragment,
        FaultSite::Merge,
    ];

    /// Stable lowercase name (used in error messages and JSON reports).
    pub fn name(self) -> &'static str {
        match self {
            FaultSite::Update => "update",
            FaultSite::Partition => "partition",
            FaultSite::Build => "build",
            FaultSite::Fragment => "fragment",
            FaultSite::Merge => "merge",
        }
    }
}

/// How a matching fault behaves across a task's retry attempts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Fail the first `failures` attempts, then succeed. With
    /// `RetryPolicy::max_attempts > failures` the stage recovers and
    /// the stream must be bit-identical to a fault-free run.
    Transient {
        /// Number of leading attempts that panic.
        failures: u32,
    },
    /// Fail every attempt; the frame is quarantined once retries
    /// exhaust.
    Permanent,
}

impl FaultKind {
    /// Whether attempt number `attempt` (0-based) of a matching task
    /// should fail.
    pub fn fires_on(self, attempt: u32) -> bool {
        match self {
            FaultKind::Transient { failures } => attempt < failures,
            FaultKind::Permanent => true,
        }
    }
}

/// One targeted fault: a site plus optional frame/camera/unit filters
/// (`None` matches everything) and the failure behavior.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpec {
    /// The pipeline site this fault fires at.
    pub site: FaultSite,
    /// Restrict to one frame index, or `None` for every frame.
    pub frame: Option<u64>,
    /// Restrict to one camera (fragment-site keys carry the camera in
    /// their low 32 bits), or `None` for every camera.
    pub camera: Option<u64>,
    /// Restrict to one execution unit (the SM index for fragment
    /// faults), or `None` for every unit.
    pub unit: Option<u64>,
    /// Transient (repeat-N-then-succeed) or permanent.
    pub kind: FaultKind,
}

impl FaultSpec {
    /// Whether this spec matches a probe at `(site, key, unit)`, where
    /// `key` is the launch key `(frame << 32) | camera`.
    fn matches(&self, site: FaultSite, key: u64, unit: u64) -> bool {
        self.site == site
            && self.frame.is_none_or(|f| key >> 32 == f)
            && self.camera.is_none_or(|c| key & 0xffff_ffff == c)
            && self.unit.is_none_or(|u| unit == u)
    }
}

/// An ordered collection of [`FaultSpec`]s. The first matching spec
/// decides whether a probe fires — so plans compose predictably and a
/// decision depends only on `(plan, site, key, unit, attempt)`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    specs: Vec<FaultSpec>,
}

impl FaultPlan {
    /// An empty plan (no faults ever fire).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a spec (builder style).
    pub fn with(mut self, spec: FaultSpec) -> Self {
        self.specs.push(spec);
        self
    }

    /// Adds a transient fault: the first `failures` attempts of `site`
    /// on `frame` panic, later attempts succeed.
    pub fn transient(self, site: FaultSite, frame: u64, failures: u32) -> Self {
        self.with(FaultSpec {
            site,
            frame: Some(frame),
            camera: None,
            unit: None,
            kind: FaultKind::Transient { failures },
        })
    }

    /// Adds a permanent fault: every attempt of `site` on `frame`
    /// panics.
    pub fn permanent(self, site: FaultSite, frame: u64) -> Self {
        self.with(FaultSpec {
            site,
            frame: Some(frame),
            camera: None,
            unit: None,
            kind: FaultKind::Permanent,
        })
    }

    /// Scatters transient faults pseudo-randomly (SplitMix64 on
    /// `(seed, site, frame)` — no clocks, no global RNG): each of the
    /// `sites` on each of the first `frames` frames faults with
    /// probability `rate_per_mille`/1000, failing `failures` attempts
    /// before succeeding. The same arguments always produce the same
    /// plan.
    pub fn scatter(
        seed: u64,
        sites: &[FaultSite],
        frames: u64,
        rate_per_mille: u64,
        failures: u32,
    ) -> Self {
        let mut plan = Self::new();
        for &site in sites {
            for frame in 0..frames {
                let h = mix(seed ^ mix(((site as u64) << 32) | frame));
                if h % 1000 < rate_per_mille {
                    plan = plan.transient(site, frame, failures);
                }
            }
        }
        plan
    }

    /// Whether any spec is registered.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// Registered specs, in match-priority order.
    pub fn specs(&self) -> &[FaultSpec] {
        &self.specs
    }

    /// The first matching spec's kind, if a probe at
    /// `(site, key, unit, attempt)` should fail.
    pub fn fault_for(
        &self,
        site: FaultSite,
        key: u64,
        unit: u64,
        attempt: u32,
    ) -> Option<FaultKind> {
        self.specs
            .iter()
            .find(|spec| spec.matches(site, key, unit))
            .map(|spec| spec.kind)
            .filter(|kind| kind.fires_on(attempt))
    }
}

/// SplitMix64 finalizer — the same wall-clock-free mixing the jitter
/// source uses, so scattered plans are reproducible everywhere.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// How the pipeline responds to a panicking stage task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts a stage task gets (first try included). Attempt
    /// counts — never timers — keep retry behavior deterministic.
    pub max_attempts: u32,
    /// When `true`, a frame that exhausts its attempts is quarantined
    /// as `Failed` while later frames keep flowing. When `false` (the
    /// default), exhaustion poisons the pipeline and re-raises the
    /// original panic payload — the legacy behavior.
    pub quarantine: bool,
}

impl Default for RetryPolicy {
    /// One attempt, no quarantine: byte-for-byte the legacy
    /// poison-everything pipeline.
    fn default() -> Self {
        Self {
            max_attempts: 1,
            quarantine: false,
        }
    }
}

impl RetryPolicy {
    /// A quarantining policy with `max_attempts` attempts per task
    /// (clamped to at least one).
    pub fn resilient(max_attempts: u32) -> Self {
        Self {
            max_attempts: max_attempts.max(1),
            quarantine: true,
        }
    }

    /// Attempts actually permitted (guards a zero in the field).
    pub fn attempts(&self) -> u32 {
        self.max_attempts.max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transient_fires_then_clears() {
        let plan = FaultPlan::new().transient(FaultSite::Build, 2, 2);
        let key = 2u64 << 32;
        assert_eq!(
            plan.fault_for(FaultSite::Build, key, 0, 0),
            Some(FaultKind::Transient { failures: 2 })
        );
        assert!(plan.fault_for(FaultSite::Build, key, 0, 1).is_some());
        assert!(plan.fault_for(FaultSite::Build, key, 0, 2).is_none());
        // Other frames and sites untouched.
        assert!(plan.fault_for(FaultSite::Build, 3 << 32, 0, 0).is_none());
        assert!(plan.fault_for(FaultSite::Merge, key, 0, 0).is_none());
    }

    #[test]
    fn permanent_fires_forever() {
        let plan = FaultPlan::new().permanent(FaultSite::Merge, 1);
        let key = 1u64 << 32;
        for attempt in 0..10 {
            assert_eq!(
                plan.fault_for(FaultSite::Merge, key, 0, attempt),
                Some(FaultKind::Permanent)
            );
        }
    }

    #[test]
    fn camera_and_unit_filters_narrow_the_match() {
        let plan = FaultPlan::new().with(FaultSpec {
            site: FaultSite::Fragment,
            frame: Some(1),
            camera: Some(2),
            unit: Some(3),
            kind: FaultKind::Permanent,
        });
        let key = (1u64 << 32) | 2;
        assert!(plan.fault_for(FaultSite::Fragment, key, 3, 0).is_some());
        assert!(plan.fault_for(FaultSite::Fragment, key, 4, 0).is_none());
        assert!(plan
            .fault_for(FaultSite::Fragment, (1u64 << 32) | 1, 3, 0)
            .is_none());
    }

    #[test]
    fn scatter_is_deterministic_and_seed_sensitive() {
        let a = FaultPlan::scatter(7, &FaultSite::INJECTABLE, 64, 300, 1);
        let b = FaultPlan::scatter(7, &FaultSite::INJECTABLE, 64, 300, 1);
        let c = FaultPlan::scatter(8, &FaultSite::INJECTABLE, 64, 300, 1);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(!a.is_empty(), "300/1000 over 256 cells should place faults");
    }

    #[test]
    fn default_policy_is_legacy_poisoning() {
        let policy = RetryPolicy::default();
        assert_eq!(policy.max_attempts, 1);
        assert!(!policy.quarantine);
        assert_eq!(RetryPolicy::resilient(0).attempts(), 1);
        assert!(RetryPolicy::resilient(3).quarantine);
    }
}
