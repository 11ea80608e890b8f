//! Readiness wait over a few sockets with `poll(2)`, so one receiver
//! thread can serve several open-loop connections. The benchmark calls
//! the C library directly rather than the program's own reactor, so that a
//! change to the reactor moves only the server side of a measurement.

use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::time::Duration;

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

const POLLIN: i16 = 0x1;
const POLLERR: i16 = 0x8;
const POLLHUP: i16 = 0x10;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: std::ffi::c_ulong, timeout: i32) -> i32;
}

/// Waits until any of `streams` is readable (or has failed), at most
/// `timeout`; returns one flag per stream.
pub fn readable(streams: &[&TcpStream], timeout: Duration) -> std::io::Result<Vec<bool>> {
    let mut fds: Vec<PollFd> = streams
        .iter()
        .map(|s| PollFd {
            fd: s.as_raw_fd(),
            events: POLLIN,
            revents: 0,
        })
        .collect();
    let millis = i32::try_from(timeout.as_millis()).unwrap_or(i32::MAX);
    // SAFETY: `fds` is a live, exclusively borrowed array of `fds.len()`
    // `struct pollfd`-layout entries (`#[repr(C)]`: int, short, short), and
    // every descriptor in it is owned by a `TcpStream` borrowed for the
    // whole call, so none can be closed while the kernel reads them.
    let ready = unsafe { poll(fds.as_mut_ptr(), fds.len() as std::ffi::c_ulong, millis) };
    if ready < 0 {
        let err = std::io::Error::last_os_error();
        if err.kind() == std::io::ErrorKind::Interrupted {
            return Ok(vec![false; fds.len()]);
        }
        return Err(err);
    }
    Ok(fds
        .iter()
        .map(|f| f.revents & (POLLIN | POLLERR | POLLHUP) != 0)
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::TcpListener;

    #[test]
    fn reports_only_the_stream_with_data() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let a = TcpStream::connect(addr).unwrap();
        let (mut a_peer, _) = listener.accept().unwrap();
        let b = TcpStream::connect(addr).unwrap();
        let (_b_peer, _) = listener.accept().unwrap();
        assert_eq!(
            readable(&[&a, &b], Duration::from_millis(10)).unwrap(),
            [false, false]
        );
        a_peer.write_all(b"x").unwrap();
        assert_eq!(
            readable(&[&a, &b], Duration::from_secs(5)).unwrap(),
            [true, false]
        );
    }
}
