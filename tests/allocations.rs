//! Work gates that host timing cannot give: the simulator's warm hot
//! paths allocate nothing.  A counting global allocator tallies the heap
//! allocations each thread makes, so the tests of this binary can run in
//! parallel without seeing each other's.
//!
//! * A warm `simulate_timing` (the lean pass the trainer runs when no
//!   recorder is enabled) allocates nothing across calls with changed
//!   loads, at the pipeline shapes the composite sweep's trainer cells use
//!   (ZB-H1 at p=16/m=64, 1F1B at p=24/m=96) and on a layout with a
//!   released stage.
//! * A warm `forward_makespan` (serving step pricing) allocates nothing.
//! * A warm `ServingSession::step` (no dynamism engine, records dropped)
//!   allocates nothing apart from the latency summaries' amortized growth:
//!   fewer than 100 allocations over 10,000 steps.
//! * So does a warm step under CALM early exit, whose engine refills the
//!   deployment's load update in place: fewer than 100 allocations over
//!   10,000 steps.
//! * A balancer call copies no layer lists: one Diffusion call (29 rounds)
//!   and one Partition call on a 34-layer profile over 16 stages each make
//!   fewer than 10 allocations, its working vectors and the new layout.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use dynmo::core::balancer::{
    BalanceObjective, BalanceRequest, DiffusionBalancer, LoadBalancer, PartitionBalancer,
};
use dynmo::dynamics::{EarlyExitEngine, EarlyExitMethod};
use dynmo::model::{ClusterConfig, DeviceSpec, Model, ModelConfig};
use dynmo::pipeline::load::StageLoad;
use dynmo::pipeline::{CommCostModel, PipelineSimulator, ScheduleKind};
use dynmo::serve::{
    ArrivalProcess, LengthModel, RequestTrace, ServingConfig, ServingEngine, ServingSession,
};

/// `System`, counting every allocation and reallocation per thread.
struct CountingAllocator;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // The slot may already be torn down while its thread exits.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method hands its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the count lives in a const-initialized
// thread-local `Cell`, so keeping it neither allocates nor re-enters here.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Run `f` and return its result with the allocations it made on this
/// thread.
fn allocations_of<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let result = f();
    (result, ALLOCATIONS.with(Cell::get) - before)
}

/// `p` stage loads that differ with `call`, with stage `released` empty.
fn stage_loads(p: usize, released: Option<usize>, call: usize) -> Vec<StageLoad> {
    (0..p)
        .map(|s| {
            if Some(s) == released {
                return StageLoad::default();
            }
            let fwd = 1.0e-3 * (1.0 + 0.1 * ((s + call) % 5) as f64);
            StageLoad {
                fwd_time: fwd,
                bwd_time: 2.0 * fwd,
                param_count: 1_000_000,
                static_bytes: 1 << 24,
                activation_bytes: 1 << 20,
                boundary_bytes: (1 << 20) * (1 + (s * call) % 3) as u64,
                num_layers: 2,
            }
        })
        .collect()
}

fn simulator(schedule: ScheduleKind, p: usize) -> PipelineSimulator {
    let cluster = ClusterConfig::homogeneous(8, p, 1, DeviceSpec::h100_sxm5());
    PipelineSimulator::new(CommCostModel::new(cluster), schedule)
}

#[test]
fn a_warm_lean_pass_allocates_nothing() {
    let model = ModelConfig::gpt(48);
    for (schedule, p, m, released) in [
        (ScheduleKind::ZeroBubbleH1, 16, 64, None),
        (ScheduleKind::OneFOneB, 24, 96, None),
        (ScheduleKind::OneFOneB, 24, 96, Some(7)),
    ] {
        let mut sim = simulator(schedule, p);
        sim.simulate_timing(&model, &stage_loads(p, released, 0), m);
        for call in 1..4 {
            let loads = stage_loads(p, released, call);
            let (makespan, allocations) =
                allocations_of(|| sim.simulate_timing(&model, &loads, m).makespan);
            assert!(makespan > 0.0);
            assert_eq!(
                allocations, 0,
                "{schedule:?} p={p} m={m} released={released:?}: call {call} allocated"
            );
        }
        // The counter is live: the full simulation allocates its spans.
        let loads = stage_loads(p, released, 4);
        let (_, allocations) = allocations_of(|| sim.simulate(&model, &loads, m));
        assert!(allocations > 0);
    }
}

#[test]
fn warm_forward_pricing_allocates_nothing() {
    let model = ModelConfig::gpt(48);
    let (p, m) = (8, 32);
    let mut sim = simulator(ScheduleKind::OneFOneB, p);
    sim.forward_makespan(&model, &stage_loads(p, Some(3), 0), m);
    for call in 1..4 {
        let loads = stage_loads(p, Some(3), call);
        let (makespan, allocations) = allocations_of(|| sim.forward_makespan(&model, &loads, m));
        assert!(makespan > 0.0);
        assert_eq!(allocations, 0, "call {call} allocated");
    }
}

/// A fixed-capacity small deployment with records dropped, serving a
/// Poisson trace long enough for 11,000 steps.
fn serving_setup() -> (ServingEngine, RequestTrace) {
    let mut config = ServingConfig::small(2);
    config.retain_records = false;
    let lengths = LengthModel {
        mean_prompt_tokens: 256,
        mean_output_tokens: 64,
        spread: 0.4,
    };
    let trace = RequestTrace::generate(&ArrivalProcess::Poisson { rate: 4.0 }, 600.0, &lengths, 7);
    (ServingEngine::new(config).expect("valid deployment"), trace)
}

/// Allocations of 10,000 warm `step`s of `session`, after 1,000 steps to
/// warm it.
fn warm_step_allocations(
    session: &mut ServingSession,
    mut step: impl FnMut(&mut ServingSession) -> bool,
) -> u64 {
    for _ in 0..1_000 {
        assert!(step(session));
    }
    let (served, allocations) = allocations_of(|| (0..10_000).all(|_| step(session)));
    assert!(served, "the trace ran out before 11,000 steps");
    allocations
}

#[test]
fn a_warm_serving_step_allocates_nothing() {
    let (engine, trace) = serving_setup();
    let allocations = warm_step_allocations(&mut engine.session(&trace), |s| s.step(None));
    // Only the exact buffers of the three latency summaries still grow.
    assert!(
        allocations < 100,
        "10,000 warm steps made {allocations} allocations"
    );
}

#[test]
fn a_warm_calm_serving_step_allocates_nothing() {
    let (engine, trace) = serving_setup();
    let mut session = engine.session(&trace);
    let model = Model::from_preset(ServingConfig::small(2).preset);
    let mut calm = EarlyExitEngine::new(&model, EarlyExitMethod::Calm, 7);
    let allocations = warm_step_allocations(&mut session, |s| s.step(Some(&mut calm)));
    // The engine refills the deployment's update in place, so again only
    // the latency summaries' exact buffers grow.
    assert!(
        allocations < 100,
        "10,000 warm CALM steps made {allocations} allocations"
    );
}

#[test]
fn a_balancer_call_copies_no_layer_lists() {
    let loads = dynmo_bench::convergence_loads(34);
    let request = BalanceRequest::new(&loads, 16, u64::MAX, BalanceObjective::ByTime);
    let balancers: [&dyn LoadBalancer; 2] = [&DiffusionBalancer::new(), &PartitionBalancer::new()];
    for balancer in balancers {
        let (outcome, allocations) = allocations_of(|| balancer.rebalance(&request));
        assert!(
            allocations < 10,
            "{}: {allocations} allocations over {} rounds",
            balancer.name(),
            outcome.rounds
        );
    }
}
