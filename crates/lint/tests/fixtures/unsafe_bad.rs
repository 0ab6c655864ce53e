// Fixture: unsafe-confinement violations (scanned as
// crates/core/src/lib.rs — a crate root that forgot to forbid unsafe).

#![deny(unsafe_code)]

#[allow(unsafe_code)]
mod fast {
    pub fn peek(p: *const u8) -> u8 {
        unsafe { *p }
    }
}

// Mentions in comments ("unsafe") and strings do not count.
const NOTE: &str = "no unsafe here";

#[cfg(test)]
mod tests {
    #[test]
    fn test_code_is_exempt() {
        let x = 1u8;
        let _ = unsafe { *(&x as *const u8) };
    }
}
