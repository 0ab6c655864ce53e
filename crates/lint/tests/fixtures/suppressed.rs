// Fixture: suppression comments (scanned as crates/core/src/node.rs).
// One violation per rule, each covered by an eden-lint allow comment —
// same-line and line-above forms both count.

fn caretaker() {
    // eden-lint: allow(pool-discipline)
    std::thread::spawn(|| {});
}

impl Node {
    // eden-lint: allow(capability-discipline) — covers the fn line below
    pub fn replicate(&self, cap: Capability) -> Result<()> {
        self.inner.endpoint.send(cap.into())
    }
}

fn retryable(status: &Status) -> bool {
    match status {
        Status::Timeout => true,
        _ => false, // eden-lint: allow(wire-exhaustiveness)
    }
}

fn peek(state: &Mutex<u64>) -> u64 {
    *state.lock().unwrap() // eden-lint: allow(panic-hygiene)
}

struct Telemetry {
    // eden-lint: allow(metric-discipline)
    frames_sent: AtomicU64,
}

fn raw_read(p: *const u8) -> u8 {
    unsafe { *p } // eden-lint: allow(unsafe-confinement)
}
