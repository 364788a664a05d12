//! The two socket calls of a zero-copy READ response, declared through
//! the C ABI (the repo takes no dependencies): `send(2)` for the frame
//! header and `sendfile(2)` for the image bytes, which go from the OS
//! page cache into the socket without passing through user memory.
//! Linux only, like the rest of the serving path.

use std::fs::File;
use std::io;
use std::net::TcpStream;
use std::os::fd::AsRawFd;

/// `send` flag: a gone peer fails with `EPIPE` instead of a signal.
const MSG_NOSIGNAL: i32 = 0x4000;
/// `send` flag: more data follows, so hold the bytes for the next write.
const MSG_MORE: i32 = 0x8000;

extern "C" {
    fn send(fd: i32, buf: *const u8, len: usize, flags: i32) -> isize;
    /// `off_t` is 64 bits on the 64-bit Linux targets this crate serves.
    fn sendfile(out_fd: i32, in_fd: i32, offset: *mut i64, count: usize) -> isize;
}

/// Repeats `call` while it is interrupted; returns its byte count.
fn retry(mut call: impl FnMut() -> isize) -> io::Result<usize> {
    loop {
        match call() {
            n if n >= 0 => return Ok(n as usize),
            _ => match io::Error::last_os_error() {
                e if e.kind() == io::ErrorKind::Interrupted => {}
                e => return Err(e),
            },
        }
    }
}

/// Sends all of `buf` on `sock` with `MSG_MORE`, so it leaves in the
/// same packet as the bytes that follow it.
pub(crate) fn send_more(sock: &TcpStream, mut buf: &[u8]) -> io::Result<()> {
    while !buf.is_empty() {
        // SAFETY: `buf` is a live slice of `buf.len()` readable bytes,
        // and the borrowed `sock` keeps its descriptor open.
        let flags = MSG_MORE | MSG_NOSIGNAL;
        let n = retry(|| unsafe { send(sock.as_raw_fd(), buf.as_ptr(), buf.len(), flags) })?;
        buf = &buf[n..];
    }
    Ok(())
}

/// Sends bytes `[offset, offset + len)` of `image` on `sock` inside the
/// kernel. An image that ends early (truncated while the bytes were in
/// flight) is `UnexpectedEof`.
pub(crate) fn send_file(sock: &TcpStream, image: &File, offset: u64, len: u64) -> io::Result<()> {
    let end = offset + len;
    let mut off = offset as i64;
    while (off as u64) < end {
        let count = (end - off as u64) as usize;
        // SAFETY: `off` is a live i64 the kernel advances in place, and
        // the borrowed `sock` and `image` keep both descriptors open.
        let (out_fd, in_fd) = (sock.as_raw_fd(), image.as_raw_fd());
        if retry(|| unsafe { sendfile(out_fd, in_fd, &mut off, count) })? == 0 {
            let e = "image ended inside a planned segment";
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, e));
        }
    }
    Ok(())
}
