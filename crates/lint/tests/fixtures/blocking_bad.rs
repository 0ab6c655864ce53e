// Fixture: blocking-discipline violations (scanned as
// crates/core/src/work.rs). `dispatch` submits `execute` to the pool;
// everything `execute` reaches must not block without a guard.

impl Node {
    fn dispatch(&self) {
        self.pool.submit(move || self.execute());
    }

    fn execute(&self) {
        self.step();
        std::thread::sleep(Duration::from_millis(1)); // direct, in a pool entry point
    }

    fn step(&self) {
        self.cv.wait(&mut guard); // transitive: execute -> step -> wait
    }

    fn inline_block(&self) {
        self.pool.submit(move || {
            self.done.wait_timeout(&mut slot, TIMEOUT); // lexically in the closure
        });
    }

    fn boxed_job(&self) -> Box<dyn FnOnce() + Send> {
        // A boxed job runs on a pool worker just like a submit closure.
        Box::new(move || {
            sys::wait(&mut fds, None); // readiness wait on a pool worker
        })
    }

    fn readiness(&self) {
        self.pool.submit(move || {
            self.poller.poll(&mut events, None); // raw readiness wait
        });
    }
}
