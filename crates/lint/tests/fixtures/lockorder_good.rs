// Fixture: sanctioned lock nesting (scanned as crates/core/src/a.rs
// with a spec ranking a.alpha before a.beta).

struct S {
    alpha: Mutex<u32>,
    beta: Mutex<u32>,
}

impl S {
    fn ordered(&self) {
        let a = self.alpha.lock();
        let b = self.beta.lock(); // alpha before beta: matches the order
        drop(b);
        drop(a);
    }

    fn sequential(&self) {
        {
            let b = self.beta.lock();
            drop(b);
        }
        let a = self.alpha.lock(); // beta released first: no edge at all
        drop(a);
    }

    fn deferred(&self) {
        let b = self.beta.lock();
        // A job boxed under the guard runs later on a pool worker, not
        // on this stack: taking alpha inside it is no inversion.
        let job: Box<dyn FnOnce() + Send> = Box::new(move || self.take_alpha());
        self.pool.submit_batch(vec![job]);
        drop(b);
    }

    fn take_alpha(&self) {
        let a = self.alpha.lock();
        drop(a);
    }

    fn exempted(&self) {
        let b = self.beta.lock();
        // eden-lint: allow(lock-order): startup-only path, runs before any
        // worker thread exists, so the inversion cannot interleave
        let a = self.alpha.lock();
        drop(a);
        drop(b);
    }
}
