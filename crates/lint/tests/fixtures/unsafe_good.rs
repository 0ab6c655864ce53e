// Fixture: sanctioned unsafe (scanned as crates/transport/src/sys.rs,
// the one module allowed to hold it).

extern "C" {
    fn poll(fds: *mut PollFd, nfds: u64, timeout: i32) -> i32;
}

pub(crate) fn wait(fds: &mut [PollFd]) -> i32 {
    // SAFETY: the pointer/length pair comes from a live slice.
    unsafe { poll(fds.as_mut_ptr(), fds.len() as u64, -1) }
}
