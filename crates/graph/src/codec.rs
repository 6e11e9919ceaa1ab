//! Little-endian array codec shared by the graph binary format
//! ([`crate::io`]) and the index snapshot format (`parscan_core::persist`).
//!
//! Both formats store flat arrays of `u32`, `f32` and `u64` in
//! little-endian order. On little-endian targets the in-memory
//! representation already *is* the file encoding, so every array moves as
//! one `memcpy` in each direction; that keeps save and load I/O-bound
//! instead of encode-bound. Big-endian targets take the per-element paths
//! (both branches compile everywhere; `cfg!` selects at compile time).
//!
//! Decoders ignore trailing bytes that do not fill a whole element, like
//! `chunks_exact`. Callers check section lengths before decoding.

/// Raw byte view of a numeric slice. Sound for `u32`/`f32`/`usize`: no
/// padding, every bit pattern valid, alignment of `u8` is 1.
fn pod_bytes<T: Copy>(xs: &[T]) -> &[u8] {
    // SAFETY: see above — the slice's backing memory is exactly
    // `size_of_val(xs)` initialized bytes.
    unsafe { std::slice::from_raw_parts(xs.as_ptr().cast(), std::mem::size_of_val(xs)) }
}

/// Append `xs` as little-endian `u32`s.
pub fn encode_u32s(out: &mut Vec<u8>, xs: &[u32]) {
    if cfg!(target_endian = "little") {
        out.extend_from_slice(pod_bytes(xs));
    } else {
        out.reserve(xs.len() * 4);
        for &x in xs {
            out.extend_from_slice(&x.to_le_bytes());
        }
    }
}

/// Append `xs` as little-endian `f32`s.
pub fn encode_f32s(out: &mut Vec<u8>, xs: &[f32]) {
    if cfg!(target_endian = "little") {
        out.extend_from_slice(pod_bytes(xs));
    } else {
        out.reserve(xs.len() * 4);
        for &x in xs {
            out.extend_from_slice(&x.to_le_bytes());
        }
    }
}

/// Append `xs` as little-endian `u64`s.
pub fn encode_usizes(out: &mut Vec<u8>, xs: &[usize]) {
    if cfg!(all(target_endian = "little", target_pointer_width = "64")) {
        out.extend_from_slice(pod_bytes(xs));
    } else {
        out.reserve(xs.len() * 8);
        for &x in xs {
            out.extend_from_slice(&(x as u64).to_le_bytes());
        }
    }
}

/// Decode into an owned `Vec<T>` with exactly one pass over memory:
/// uninitialized allocation + `memcpy`, no zero-fill. Sound only for
/// padding-free any-bit-pattern element types (`u32`, `f32`, `usize`).
fn decode_pod<T: Copy>(raw: &[u8]) -> Vec<T> {
    let size = std::mem::size_of::<T>();
    let len = raw.len() / size;
    let mut out: Vec<T> = Vec::with_capacity(len);
    // SAFETY: the copy initializes exactly the `len * size` bytes that
    // `set_len` then claims; any bit pattern is a valid `T`.
    unsafe {
        std::ptr::copy_nonoverlapping(raw.as_ptr(), out.as_mut_ptr().cast::<u8>(), len * size);
        out.set_len(len);
    }
    out
}

/// Decode little-endian `u32`s.
pub fn decode_u32s(raw: &[u8]) -> Vec<u32> {
    if cfg!(target_endian = "little") {
        decode_pod(raw)
    } else {
        raw.chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().expect("4-byte chunk")))
            .collect()
    }
}

/// Decode little-endian `f32`s.
pub fn decode_f32s(raw: &[u8]) -> Vec<f32> {
    if cfg!(target_endian = "little") {
        decode_pod(raw)
    } else {
        raw.chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().expect("4-byte chunk")))
            .collect()
    }
}

/// Decode little-endian `u64`s into `usize`s.
pub fn decode_usizes(raw: &[u8]) -> Vec<usize> {
    if cfg!(all(target_endian = "little", target_pointer_width = "64")) {
        decode_pod(raw)
    } else {
        raw.chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("8-byte chunk")) as usize)
            .collect()
    }
}

/// The little-endian `u32` at byte offset `at`.
///
/// # Panics
/// Panics if `bytes` is shorter than `at + 4`; callers check lengths first.
pub fn u32_at(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4-byte field"))
}

/// The little-endian `u64` at byte offset `at`.
///
/// # Panics
/// Panics if `bytes` is shorter than `at + 8`; callers check lengths first.
pub fn u64_at(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8-byte field"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrays_round_trip_in_little_endian() {
        let mut out = Vec::new();
        encode_u32s(&mut out, &[1, 0x0102_0304]);
        encode_f32s(&mut out, &[0.5]);
        encode_usizes(&mut out, &[7, usize::MAX >> 1]);
        assert_eq!(&out[4..8], &[4, 3, 2, 1]);
        assert_eq!(decode_u32s(&out[..8]), vec![1, 0x0102_0304]);
        assert_eq!(decode_f32s(&out[8..12]), vec![0.5]);
        assert_eq!(decode_usizes(&out[12..]), vec![7, usize::MAX >> 1]);
        assert_eq!(u32_at(&out, 4), 0x0102_0304);
        assert_eq!(u64_at(&out, 12), 7);
        // A partial trailing element is ignored.
        assert_eq!(decode_u32s(&out[..7]), vec![1]);
    }
}
