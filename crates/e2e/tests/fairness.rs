//! Fairness / no-starvation tests for the ticketed admission queue (PR 10):
//! with one synthesis slot and both classes parked, grants must be FIFO
//! within a class, latency-critical requests must be preferred, and the
//! periodic background boost must give the background class guaranteed
//! (bounded-wait) progress under a sustained latency-critical stream —
//! never a priority inversion outside a boost. Runs in the
//! `determinism-mt` CI leg: the grant schedule is a pure function of
//! arrival (ticket) order, independent of `HEXCUTE_THREADS`.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, Once, OnceLock};
use std::time::{Duration, Instant};

use hexcute_arch::GpuArch;
use hexcute_core::{CompilerOptions, KernelCacheConfig};
use hexcute_e2e::{CompileService, Priority, ServiceConfig, TenantId};
use hexcute_ir::Program;
use hexcute_kernels::gemm::{fp16_gemm, GemmConfig, GemmShape};
use hexcute_synthesis::{set_synth_fault_hook, SynthFaultPoint};

/// The kernel a slot holder synthesizes (held by [`StallGates`] for as long
/// as the test needs the slot).
fn slow_program() -> Program {
    fp16_gemm(GemmShape::new(1024, 1024, 1024), GemmConfig::default()).unwrap()
}

/// Distinct quick kernels (one per waiter, so nothing coalesces).
fn small_program(k: usize) -> Program {
    fp16_gemm(GemmShape::new(128, 128, k), GemmConfig::default()).unwrap()
}

/// Thread-name prefixes of the two groups of requests [`StallGates`]
/// holds: slot holders, and arrivals queued behind them.
const HOLDER: &str = "slot-holder";
const ARRIVAL: &str = "arrival";

/// How long a test waits for one step of its schedule before failing.
const STEP_TIMEOUT: Duration = Duration::from_secs(120);

/// Injected stalls that hand a test, not synthesis time, control over when
/// slots free up. Every synthesis on a [`HOLDER`] thread parks at its stall
/// sites until the test releases that holder; every synthesis on an
/// [`ARRIVAL`] thread parks at its first stall site — so only once it has
/// been granted a slot — until the test releases it. Syntheses on other
/// threads pass straight through.
#[derive(Default)]
struct StallGates {
    state: Mutex<GateState>,
    changed: Condvar,
}

#[derive(Default)]
struct GateState {
    /// Name prefixes of the holder threads released so far.
    released_holders: Vec<String>,
    /// Arrival threads that reached a stall site, in order.
    started: Vec<String>,
    /// How many of `started` have been released.
    released: usize,
}

/// The gates of this test binary, with the synthesis stall hook that
/// consults them installed on first use.
fn gates() -> &'static StallGates {
    static GATES: OnceLock<StallGates> = OnceLock::new();
    static INSTALL: Once = Once::new();
    let gates: &'static StallGates = GATES.get_or_init(StallGates::default);
    INSTALL.call_once(|| {
        set_synth_fault_hook(Some(Arc::new(move |point| {
            if point == SynthFaultPoint::Stall {
                gates.park();
            }
            None
        })));
    });
    gates
}

impl StallGates {
    fn park(&self) {
        let thread = std::thread::current();
        let name = thread.name().unwrap_or_default();
        let mut state = self.state.lock().unwrap();
        if name.starts_with(HOLDER) {
            while !state.released_holders.iter().any(|p| name.starts_with(p)) {
                state = self.changed.wait(state).unwrap();
            }
        } else if name.starts_with(ARRIVAL) {
            let position = match state.started.iter().position(|n| n == name) {
                Some(position) => position,
                None => {
                    state.started.push(name.to_string());
                    self.changed.notify_all();
                    state.started.len() - 1
                }
            };
            while position >= state.released {
                state = self.changed.wait(state).unwrap();
            }
        }
    }

    /// Releases every holder thread whose name starts with `prefix`.
    fn release_holders(&self, prefix: &str) {
        let mut state = self.state.lock().unwrap();
        state.released_holders.push(prefix.to_string());
        self.changed.notify_all();
    }

    /// Waits until `granted` unreleased arrivals have started, then
    /// releases them all.
    fn release_granted(&self, granted: usize) {
        let deadline = Instant::now() + STEP_TIMEOUT;
        let mut state = self.state.lock().unwrap();
        while state.started.len() - state.released < granted {
            let left = deadline.saturating_duration_since(Instant::now());
            assert!(
                !left.is_zero(),
                "a granted arrival never started synthesizing"
            );
            state = self.changed.wait_timeout(state, left).unwrap().0;
        }
        state.released = state.started.len();
        self.changed.notify_all();
    }
}

/// N background waiters park first, then a stream of latency-critical
/// arrivals queues behind one held slot. Every request must complete
/// (bounded wait — the join proves no starvation), same-class requests must
/// complete in submission order, and the interleave must be exactly the
/// boosted-priority schedule: two latency grants, then one boosted
/// background grant, repeating — with zero priority inversions.
#[test]
fn background_waiters_are_never_starved_and_classes_stay_fifo() {
    let config = ServiceConfig {
        max_concurrent: 1,
        queue_capacity: 16,
        background_queue_capacity: 16,
        boost_interval: 2,
        ..ServiceConfig::default()
    };
    let service = Arc::new(CompileService::with_service_config(
        GpuArch::h100(),
        CompilerOptions::new(),
        KernelCacheConfig::default(),
        config,
    ));

    // Occupy the only slot, held by an injected stall until every waiter
    // has parked, so no grant happens before the queue is complete.
    let gates = gates();
    let holder = {
        let service = Arc::clone(&service);
        std::thread::Builder::new()
            .name(format!("{HOLDER}-bg"))
            .spawn(move || service.compile(&slow_program()))
            .unwrap()
    };
    while service.stats().syntheses == 0 {
        std::thread::yield_now();
    }

    // Arrivals are serialized by polling the queue depth, so ticket order
    // equals submission order: B0..B3 first, then the L0..L7 stream.
    let arrivals: Vec<(Priority, String)> = (0..4)
        .map(|i| (Priority::Background, format!("B{i}")))
        .chain((0..8).map(|i| (Priority::LatencyCritical, format!("L{i}"))))
        .collect();
    let order: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
    let failures = Arc::new(AtomicUsize::new(0));
    let mut handles = Vec::new();
    for (parked, (priority, label)) in arrivals.into_iter().enumerate() {
        let worker = Arc::clone(&service);
        let order = Arc::clone(&order);
        let failures = Arc::clone(&failures);
        let program = small_program(32 + parked);
        handles.push(std::thread::spawn(move || {
            let tenant = TenantId(0);
            match worker.compile_as(&program, priority, tenant) {
                Ok(_) => order.lock().unwrap().push(label),
                Err(_) => {
                    failures.fetch_add(1, Ordering::Relaxed);
                }
            }
        }));
        while service.stats().queue_depth < parked + 1 {
            std::thread::sleep(Duration::from_micros(50));
        }
    }
    assert_eq!(
        service.stats().syntheses,
        1,
        "the slot holder must still be in flight while the queue builds"
    );

    gates.release_holders(&format!("{HOLDER}-bg"));
    holder.join().unwrap().expect("the slot holder succeeds");
    for handle in handles {
        handle.join().expect("waiter threads must complete");
    }
    assert_eq!(failures.load(Ordering::Relaxed), 0, "every waiter succeeds");

    // Expected grant schedule with boost_interval = 2 and everything
    // parked: L,L then a boosted B, repeating; the background tail drains
    // once the latency queue is empty.
    let order = order.lock().unwrap();
    assert_eq!(
        *order,
        ["L0", "L1", "B0", "L2", "L3", "B1", "L4", "L5", "B2", "L6", "L7", "B3"],
        "grants must be FIFO within a class with periodic background boosts"
    );

    let stats = service.stats();
    assert_eq!(stats.background_requests, 4, "{stats}");
    assert_eq!(
        stats.background_boosts, 3,
        "B0..B2 are boosted over parked latency waiters; B3 drains an empty \
         latency queue: {stats}"
    );
    assert_eq!(
        stats.priority_inversions, 0,
        "no background grant may overtake a parked latency waiter outside \
         a boost: {stats}"
    );
    assert_eq!(stats.max_queue_depth, 12, "{stats}");
    assert_eq!(stats.queue_depth, 0, "{stats}");
}

/// Two tenants sharing the latency class under a per-tenant quota: an
/// over-quota tenant's burst must not lock the other tenant out — the
/// quota caps tenant 1 to one in-flight synthesis, so tenant 2's (younger)
/// requests are granted the other slot — and FIFO within each tenant is
/// preserved throughout.
#[test]
fn tenant_bursts_share_the_slots_fairly() {
    let config = ServiceConfig {
        max_concurrent: 2,
        queue_capacity: 32,
        tenant_quota: 1,
        ..ServiceConfig::default()
    };
    let service = Arc::new(CompileService::with_service_config(
        GpuArch::h100(),
        CompilerOptions::new(),
        KernelCacheConfig::default(),
        config,
    ));

    // Two distinct slow kernels (they must not coalesce) on two distinct
    // tenants occupy both slots while the queue builds; injected stalls
    // hold them until every arrival has parked.
    let gates = gates();
    let holders: Vec<_> = [
        (100u32, GemmShape::new(1024, 1024, 1024)),
        (101u32, GemmShape::new(1024, 1024, 512)),
    ]
    .into_iter()
    .map(|(tenant, shape)| {
        let service = Arc::clone(&service);
        std::thread::Builder::new()
            .name(format!("{HOLDER}-t{tenant}"))
            .spawn(move || {
                let program = fp16_gemm(shape, GemmConfig::default()).unwrap();
                service.compile_as(&program, Priority::LatencyCritical, TenantId(tenant))
            })
            .unwrap()
    })
    .collect();
    while service.stats().syntheses < 2 {
        std::thread::yield_now();
    }

    // Tenant 1 bursts six requests, then tenant 2 submits two — strictly
    // younger tickets.
    let order: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
    let mut handles = Vec::new();
    let arrivals: Vec<(u32, String)> = (0..6)
        .map(|i| (1u32, format!("t1-{i}")))
        .chain((0..2).map(|i| (2u32, format!("t2-{i}"))))
        .collect();
    for (parked, (tenant, label)) in arrivals.into_iter().enumerate() {
        let worker = Arc::clone(&service);
        let order = Arc::clone(&order);
        let program = small_program(64 + parked);
        let arrival = std::thread::Builder::new().name(format!("{ARRIVAL}-{label}"));
        handles.push(
            arrival
                .spawn(move || {
                    let response =
                        worker.compile_as(&program, Priority::LatencyCritical, TenantId(tenant));
                    response.expect("tenant requests succeed");
                    order.lock().unwrap().push(label);
                })
                .unwrap(),
        );
        while service.stats().queue_depth < parked + 1 {
            std::thread::sleep(Duration::from_micros(50));
        }
    }
    gates.release_holders(&format!("{HOLDER}-t"));
    for holder in holders {
        holder.join().unwrap().expect("the slot holders succeed");
    }
    // Granted arrivals then run in rounds: every arrival holding a slot is
    // released, and the next round starts once all of them completed. A
    // round's grants are made under the admission lock as its members
    // free their slots, so which requests share a round is the scheduler's
    // decision, and nothing depends on how long a synthesis takes or how
    // the host schedules threads.
    let mut completed = 0;
    while completed < handles.len() {
        let granted = handles.len() - completed - service.stats().queue_depth;
        gates.release_granted(granted);
        completed += granted;
        let deadline = Instant::now() + STEP_TIMEOUT;
        while order.lock().unwrap().len() < completed {
            assert!(
                Instant::now() < deadline,
                "a released arrival never completed"
            );
            std::thread::sleep(Duration::from_micros(50));
        }
    }

    for handle in handles {
        handle.join().expect("tenant threads must complete");
    }

    // The quota keeps at most one tenant-1 synthesis in flight, so tenant
    // 2's two requests ride the second slot and finish long before tenant
    // 1's burst drains; within each tenant, completions are FIFO.
    let order = order.lock().unwrap();
    let t2_last = order.iter().rposition(|l| l.starts_with("t2")).unwrap();
    assert!(
        t2_last <= 4,
        "tenant 2's requests must not wait out tenant 1's burst: {order:?}"
    );
    for tenant in ["t1", "t2"] {
        let seq: Vec<_> = order.iter().filter(|l| l.starts_with(tenant)).collect();
        let mut sorted = seq.clone();
        sorted.sort();
        assert_eq!(seq, sorted, "FIFO within {tenant} violated: {order:?}");
    }
    let stats = service.stats();
    assert_eq!(stats.priority_inversions, 0, "{stats}");
}
