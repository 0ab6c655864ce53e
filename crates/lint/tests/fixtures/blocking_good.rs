// Fixture: sanctioned blocking (scanned as crates/directory/src/work.rs).
// Pool-reachable waits are wrapped in blocking(); dedicated threads may
// block freely.

impl Node {
    fn dispatch(&self) {
        self.pool.submit(move || self.execute());
    }

    fn execute(&self) {
        // The pool is told this path may stall: a spare gets injected.
        let out = self.pool.blocking(|| self.step());
        self.fanout(out);
    }

    fn step(&self) {
        self.cv.wait(&mut guard); // only reached under blocking()
    }

    fn reader(&self) {
        std::thread::spawn(move || loop {
            sys::wait(&mut fds, None); // a dedicated reader thread waits on readiness
        });
        let waited = self.pool.blocking(|| sys::wait(&mut fds, TIMEOUT));
        self.fanout(waited);
    }

    fn fanout(&self, out: u64) {
        std::thread::spawn(move || {
            std::thread::sleep(NAP); // a dedicated thread is allowed to block
        });
    }
}
