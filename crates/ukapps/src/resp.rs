//! The RESP (REdis Serialization Protocol) codec, borrowed.
//!
//! One parser and one set of writers serve the server
//! ([`kvstore`](crate::kvstore)), the load generator
//! ([`loadgen`](crate::loadgen)) and the tests. Nothing here allocates:
//! [`command`] hands back the words of a command as slices into the
//! buffer it was given, [`value_len`] only measures, and the `put_*`
//! writers append to a `Vec<u8>` the caller keeps (the connection's send
//! backlog), growing it at most while it warms up.
//!
//! Every length on the wire is checked against a stated cap before
//! anything is sized or sliced by it, and input that can never become
//! valid is [`Parse::Malformed`] — distinct from [`Parse::Incomplete`],
//! so a server hangs up on garbage instead of buffering it forever.

use crate::put_decimal;

/// Most words one command may carry. The server's widest command has
/// three; the cap leaves room for a client's variadic forms (`DEL k1 k2
/// …`, `MSET`) to be answered `-ERR unknown command` rather than hung up
/// on, while a hostile `*576460752303423488` is refused at the count.
pub const MAX_ARGS: usize = 64;

/// Longest bulk string accepted: what a connection may be made to
/// buffer for a single word.
pub(crate) const MAX_BULK: usize = 1 << 20;

/// Longest `+simple`, `-error` or `:integer` line (without its CRLF):
/// these are status words, not payloads.
pub(crate) const MAX_LINE: usize = 512;

/// A length line has at most this many digits (`usize::MAX` has 20), so
/// a run of leading zeros cannot be streamed forever.
const MAX_DIGITS: usize = 20;

/// What the head of a buffer holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Parse<T> {
    /// One whole item, and the bytes it occupies.
    Complete(T, usize),
    /// A valid prefix: more bytes are needed.
    Incomplete,
    /// Not RESP, or a length above its cap: no later bytes can fix it.
    Malformed,
}

/// Why a parse step stopped short; lets the steps chain with `?`.
enum Short {
    Incomplete,
    Malformed,
}

type Step<T> = Result<(T, usize), Short>;

impl<T> From<Step<T>> for Parse<T> {
    fn from(step: Step<T>) -> Self {
        match step {
            Ok((item, used)) => Parse::Complete(item, used),
            Err(Short::Incomplete) => Parse::Incomplete,
            Err(Short::Malformed) => Parse::Malformed,
        }
    }
}

/// How many leading words of a command [`Cmd`] keeps.
pub(crate) const CMD_WORDS: usize = 3;

/// One command: how many words it has and the first `CMD_WORDS` of
/// them, borrowed from the buffer they arrived in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
// ukcheck: allow(unused-pub) -- what the public `command` returns
pub struct Cmd<'a> {
    /// Words in the command, kept or not.
    pub argc: usize,
    /// The leading words; slots past `argc` are empty.
    pub words: [&'a [u8]; CMD_WORDS],
}

/// `<digits>\r\n` at the head of `buf`, refusing values above `max`.
fn decimal_line(buf: &[u8], max: usize) -> Step<usize> {
    let mut n = 0usize;
    for (i, &b) in buf.iter().enumerate() {
        match b {
            b'0'..=b'9' if i < MAX_DIGITS => {
                // `n <= max` held before this digit, so this cannot
                // overflow for any cap the module uses.
                n = n * 10 + usize::from(b - b'0');
                if n > max {
                    return Err(Short::Malformed);
                }
            }
            b'\r' if i > 0 => {
                return match buf.get(i + 1) {
                    Some(b'\n') => Ok((n, i + 2)),
                    Some(_) => Err(Short::Malformed),
                    None => Err(Short::Incomplete),
                }
            }
            _ => return Err(Short::Malformed),
        }
    }
    Err(Short::Incomplete)
}

/// The line at the head of `buf` without its CRLF, at most
/// [`MAX_LINE`] bytes.
fn line(buf: &[u8]) -> Step<&[u8]> {
    let window = &buf[..buf.len().min(MAX_LINE + 2)];
    match window.windows(2).position(|w| w == b"\r\n") {
        Some(end) => Ok((&buf[..end], end + 2)),
        None if window.len() == MAX_LINE + 2 => Err(Short::Malformed),
        None => Err(Short::Incomplete),
    }
}

/// The payload of `<len>\r\n<bytes>\r\n` (`buf` starts after the `$`).
fn bulk(buf: &[u8]) -> Step<&[u8]> {
    let (len, head) = decimal_line(buf, MAX_BULK)?;
    let end = head.checked_add(len).ok_or(Short::Malformed)?;
    let total = end.checked_add(2).ok_or(Short::Malformed)?;
    let Some(tail) = buf.get(end..total) else {
        // A wrong byte where the CR belongs is already a verdict.
        return Err(match buf.get(end) {
            Some(b'\r') | None => Short::Incomplete,
            Some(_) => Short::Malformed,
        });
    };
    if tail != b"\r\n" {
        return Err(Short::Malformed);
    }
    Ok((&buf[head..end], total))
}

/// `$-1\r\n`, the nil bulk (`buf` starts after the `$`).
fn nil(buf: &[u8]) -> Step<()> {
    const NIL: &[u8] = b"-1\r\n";
    if buf.starts_with(NIL) {
        Ok(((), NIL.len()))
    } else if NIL.starts_with(buf) {
        Err(Short::Incomplete)
    } else {
        Err(Short::Malformed)
    }
}

/// One word of a command: a bulk or a simple string.
fn word(buf: &[u8]) -> Step<&[u8]> {
    let (&kind, rest) = buf.split_first().ok_or(Short::Incomplete)?;
    let (w, used) = match kind {
        b'$' => bulk(rest)?,
        b'+' => line(rest)?,
        _ => return Err(Short::Malformed),
    };
    Ok((w, used + 1))
}

fn command_step(buf: &[u8]) -> Step<Cmd<'_>> {
    let (&kind, rest) = buf.split_first().ok_or(Short::Incomplete)?;
    if kind != b'*' {
        return Err(Short::Malformed);
    }
    let (argc, used) = decimal_line(rest, MAX_ARGS)?;
    let mut at = used + 1;
    let mut words: [&[u8]; CMD_WORDS] = [&[]; CMD_WORDS];
    for i in 0..argc {
        let (w, used) = word(buf.get(at..).unwrap_or(&[]))?;
        if let Some(slot) = words.get_mut(i) {
            *slot = w;
        }
        at += used;
    }
    Ok((Cmd { argc, words }, at))
}

/// Parses one command — `*argc` followed by `argc` words, each a bulk
/// or a simple string — off the head of `buf`. Anything else (no `*`,
/// a count above [`MAX_ARGS`], a word above `MAX_BULK`, a nested
/// array, integer or nil in a word position, a line that is not a
/// number where one belongs) is [`Parse::Malformed`].
pub fn command(buf: &[u8]) -> Parse<Cmd<'_>> {
    command_step(buf).into()
}

fn value_step(buf: &[u8]) -> Step<()> {
    // Values still to skip; an array adds its elements. Iterative, so a
    // hostile nesting depth costs a counter, not stack.
    let mut pending = 1usize;
    let mut at = 0usize;
    while pending > 0 {
        let rest = buf.get(at..).unwrap_or(&[]);
        let (&kind, body) = rest.split_first().ok_or(Short::Incomplete)?;
        let used = match kind {
            b'+' | b'-' | b':' => line(body)?.1,
            b'$' if body.first() == Some(&b'-') => nil(body)?.1,
            b'$' => bulk(body)?.1,
            b'*' if body.first() == Some(&b'-') => nil(body)?.1,
            b'*' => {
                let (n, used) = decimal_line(body, MAX_ARGS)?;
                pending += n;
                used
            }
            _ => return Err(Short::Malformed),
        };
        pending -= 1;
        at += used + 1;
    }
    Ok(((), at))
}

/// Measures one value of any type (a reply, say) at the head of `buf`:
/// `Complete((), len)` once all `len` bytes of it are there. Arrays are
/// held to [`MAX_ARGS`] elements and bulks to `MAX_BULK` bytes like a
/// command's.
pub fn value_len(buf: &[u8]) -> Parse<()> {
    value_step(buf).into()
}

/// Appends `$len\r\n<bytes>\r\n`.
pub fn put_bulk(out: &mut Vec<u8>, bytes: &[u8]) {
    out.push(b'$');
    put_decimal(out, bytes.len() as u64);
    out.extend_from_slice(b"\r\n");
    out.extend_from_slice(bytes);
    out.extend_from_slice(b"\r\n");
}

/// Appends the nil bulk, `$-1\r\n`.
pub fn put_nil(out: &mut Vec<u8>) {
    out.extend_from_slice(b"$-1\r\n");
}

/// Appends `+<s>\r\n`.
pub fn put_simple(out: &mut Vec<u8>, s: &str) {
    out.push(b'+');
    out.extend_from_slice(s.as_bytes());
    out.extend_from_slice(b"\r\n");
}

/// Appends `-<msg>\r\n`.
pub(crate) fn put_error(out: &mut Vec<u8>, msg: &str) {
    out.push(b'-');
    out.extend_from_slice(msg.as_bytes());
    out.extend_from_slice(b"\r\n");
}

/// Appends `:<n>\r\n`.
pub fn put_int(out: &mut Vec<u8>, n: i64) {
    out.push(b':');
    if n < 0 {
        out.push(b'-');
    }
    put_decimal(out, n.unsigned_abs());
    out.extend_from_slice(b"\r\n");
}

/// Appends a command: `*argc` and each word as a bulk.
pub fn put_command(out: &mut Vec<u8>, words: &[&[u8]]) {
    out.push(b'*');
    put_decimal(out, words.len() as u64);
    out.extend_from_slice(b"\r\n");
    for w in words {
        put_bulk(out, w);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn encoded(words: &[&[u8]]) -> Vec<u8> {
        let mut out = Vec::new();
        put_command(&mut out, words);
        out
    }

    #[test]
    fn command_borrows_its_words() {
        let buf = encoded(&[b"SET", b"k", b"value"]);
        let Parse::Complete(cmd, used) = command(&buf) else {
            panic!("complete command");
        };
        assert_eq!(used, buf.len());
        assert_eq!(cmd.argc, 3);
        assert_eq!(cmd.words, [&b"SET"[..], b"k", b"value"]);
        // The slices point into `buf`, not at copies.
        let range = buf.as_ptr_range();
        assert!(cmd.words.iter().all(|w| range.contains(&w.as_ptr())));
    }

    #[test]
    fn words_past_the_kept_ones_are_counted_and_skipped() {
        let mut buf = encoded(&[b"DEL", b"a", b"b", b"c", b"d"]);
        let one = buf.len();
        buf.extend_from_slice(b"*1\r\n+PING\r\n");
        let Parse::Complete(cmd, used) = command(&buf) else {
            panic!("complete command");
        };
        assert_eq!((cmd.argc, used), (5, one));
        assert_eq!(cmd.words, [&b"DEL"[..], b"a", b"b"]);
        // A simple string is a word too.
        let Parse::Complete(ping, _) = command(&buf[one..]) else {
            panic!("complete command");
        };
        assert_eq!((ping.argc, ping.words[0]), (1, &b"PING"[..]));
    }

    #[test]
    fn every_proper_prefix_is_incomplete() {
        let buf = encoded(&[b"GET", b"key"]);
        for cut in 0..buf.len() {
            assert_eq!(command(&buf[..cut]), Parse::Incomplete, "cut at {cut}");
        }
    }

    #[test]
    fn hostile_lengths_are_malformed_not_allocated() {
        // The count that overflowed `Vec::with_capacity`.
        assert_eq!(command(b"*576460752303423488\r\n$3\r\nGET\r\n"), Parse::Malformed);
        assert_eq!(command(b"*65\r\n"), Parse::Malformed, "one over MAX_ARGS");
        assert_eq!(command(b"*1\r\n$1048577\r\n"), Parse::Malformed, "one over MAX_BULK");
        assert_eq!(command(b"*1\r\n$18446744073709551615\r\n"), Parse::Malformed);
        assert_eq!(command(b"*1\r\n$99999999999999999999999\r\n"), Parse::Malformed);
        assert_eq!(command(b"*0000000000000000000000"), Parse::Malformed, "zeros forever");
        assert_eq!(command(b"*1\r\n$1048576\r\n"), Parse::Incomplete, "MAX_BULK itself is fine");
    }

    #[test]
    fn lines_that_are_not_resp_are_malformed() {
        for bad in [
            &b"hello world\r\n"[..],
            b"\xff\xfe\r\n",
            b"*abc\r\n",
            b"*\r\n",
            b"*-1\r\n",
            b"*1\r\n$x\r\n",
            b"*1\r\n$-1\r\n",
            b"*1\r\n:5\r\n",
            b"*1\r\n*1\r\n$1\r\na\r\n",
            b"*1\r\n$3\r\nabcXY",
            b"*1\rX",
            b"+PING\r\n",
        ] {
            assert_eq!(command(bad), Parse::Malformed, "{:?}", String::from_utf8_lossy(bad));
        }
        let long = [b'+'; MAX_LINE + 8];
        assert_eq!(command(&[b"*1\r\n", &long[..]].concat()), Parse::Malformed);
    }

    #[test]
    fn value_len_measures_every_reply_type() {
        for v in [
            &b"+OK\r\n"[..],
            b"-ERR unknown command\r\n",
            b":-42\r\n",
            b"$-1\r\n",
            b"$5\r\nhello\r\n",
            b"$0\r\n\r\n",
            b"*-1\r\n",
            b"*0\r\n",
            b"*2\r\n$1\r\na\r\n*2\r\n:1\r\n+x\r\n",
        ] {
            let mut buf = v.to_vec();
            buf.extend_from_slice(b"+NEXT\r\n");
            assert_eq!(value_len(&buf), Parse::Complete((), v.len()), "{:?}", String::from_utf8_lossy(v));
            for cut in 0..v.len() {
                assert_eq!(value_len(&v[..cut]), Parse::Incomplete, "{:?} cut at {cut}", String::from_utf8_lossy(v));
            }
        }
        assert_eq!(value_len(b"?\r\n"), Parse::Malformed);
        assert_eq!(value_len(b"$2000000\r\n"), Parse::Malformed);
    }

    #[test]
    fn writers_emit_the_wire_forms() {
        let mut out = Vec::new();
        put_bulk(&mut out, b"hey");
        put_nil(&mut out);
        put_simple(&mut out, "OK");
        put_error(&mut out, "ERR protocol");
        put_int(&mut out, 0);
        put_int(&mut out, -120);
        put_int(&mut out, i64::MIN);
        put_bulk(&mut out, &[7u8; 1234]);
        let tail = out.split_off(out.len() - 1234 - 9);
        assert_eq!(
            out,
            b"$3\r\nhey\r\n$-1\r\n+OK\r\n-ERR protocol\r\n:0\r\n:-120\r\n:-9223372036854775808\r\n"
        );
        assert!(tail.starts_with(b"$1234\r\n\x07") && tail.ends_with(b"\x07\r\n"));
    }
}
