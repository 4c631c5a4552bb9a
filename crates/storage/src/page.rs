//! The fixed-size page: header, payload, checksum.
//!
//! Layout (little-endian):
//!
//! ```text
//! [0..4)   magic  "IDBP"
//! [4..12)  page id (u64)
//! [12..16) payload length (u32, <= PAYLOAD_SIZE)
//! [16..20) CRC32-C over the payload bytes
//! [20..)   payload (PAYLOAD_SIZE bytes, tail zero-padded)
//! ```
//!
//! The checksum is computed when a page is flushed and verified when a
//! page is read from disk, so a torn write (partial page at the end of
//! the file after a crash) or bit rot surfaces as
//! [`StorageError::Corrupt`] instead of decoding as garbage data. Every
//! page a query reads from disk is verified before use, and a query reads
//! only the pages of the columns it uses: a corrupt page fails exactly
//! the queries that touch it.
//!
//! [`crc32c`] runs on the CPU's CRC32 instruction (SSE4.2 `crc32`, eight
//! bytes per step) when the CPU has it, detected once at first use; the
//! byte-at-a-time table loop is the fallback on CPUs without it and the
//! oracle the tests hold the instruction path to. On a 16 KiB page the
//! table loop costs about 20× the instruction, which made it most of a
//! buffer-pool miss.

use crate::{Result, StorageError};

/// On-disk page size in bytes. 16 KiB holds one default-sized column
/// chunk (1024 × 8-byte values) with header room to spare.
pub const PAGE_SIZE: usize = 16 * 1024;
/// Bytes of payload a page carries.
pub const PAYLOAD_SIZE: usize = PAGE_SIZE - HEADER_SIZE;
/// Header bytes preceding the payload.
pub const HEADER_SIZE: usize = 20;

const MAGIC: [u8; 4] = *b"IDBP";

/// CRC32-C (Castagnoli). Standard and good enough to reject torn pages
/// and truncated WAL records; this is an integrity check, not an
/// adversarial MAC. Uses the CPU's CRC32 instruction when present (see
/// the module docs), the table loop otherwise; both give the same value.
pub fn crc32c(bytes: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if sse42() {
        // SAFETY: `sse42()` confirmed at runtime that this CPU supports
        // SSE4.2, the only target feature `crc32c_sse42` enables.
        return unsafe { crc32c_sse42(bytes) };
    }
    crc32c_table(bytes)
}

/// Does this CPU have SSE4.2 (the `crc32` instruction)? Detected once and
/// cached in an atomic, so a checksum pays one relaxed load, not a CPUID.
#[cfg(target_arch = "x86_64")]
fn sse42() -> bool {
    use std::sync::atomic::{AtomicU8, Ordering};
    // 0 = unknown, 1 = present, 2 = absent. Racing initializations are
    // benign: both writers store the same answer.
    static CACHE: AtomicU8 = AtomicU8::new(0);
    match CACHE.load(Ordering::Relaxed) {
        1 => true,
        2 => false,
        _ => {
            let yes = std::arch::is_x86_feature_detected!("sse4.2");
            CACHE.store(if yes { 1 } else { 2 }, Ordering::Relaxed);
            yes
        }
    }
}

/// CRC32-C on the SSE4.2 `crc32` instruction: eight bytes per step, then
/// the tail a byte at a time. The instruction implements the same
/// reflected Castagnoli polynomial as [`crc32c_table`].
///
/// # Safety
///
/// The CPU must support SSE4.2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.2")]
unsafe fn crc32c_sse42(bytes: &[u8]) -> u32 {
    use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};
    let mut words = bytes.chunks_exact(8);
    let mut crc = u64::from(!0u32);
    for w in &mut words {
        let word = u64::from_le_bytes(w.try_into().expect("chunks_exact yields 8 bytes"));
        crc = _mm_crc32_u64(crc, word);
    }
    // The 64-bit form zero-extends its 32-bit result, so this is lossless.
    let mut crc = crc as u32;
    for &b in words.remainder() {
        crc = _mm_crc32_u8(crc, b);
    }
    !crc
}

/// CRC32-C, table-driven, one byte per step: the portable fallback and
/// the tests' reference for the instruction path.
fn crc32c_table(bytes: &[u8]) -> u32 {
    static TABLE: std::sync::OnceLock<[u32; 256]> = std::sync::OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut t = [0u32; 256];
        for (i, e) in t.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 { 0x82f6_3b78 ^ (c >> 1) } else { c >> 1 };
            }
            *e = c;
        }
        t
    });
    let mut crc = !0u32;
    for &b in bytes {
        crc = table[((crc ^ b as u32) & 0xff) as usize] ^ (crc >> 8);
    }
    !crc
}

/// Assemble a full on-disk page image for `payload` (checksummed).
pub fn encode_page(page_id: u64, payload: &[u8]) -> Vec<u8> {
    assert!(payload.len() <= PAYLOAD_SIZE, "payload exceeds page capacity");
    let mut buf = vec![0u8; PAGE_SIZE];
    buf[0..4].copy_from_slice(&MAGIC);
    buf[4..12].copy_from_slice(&page_id.to_le_bytes());
    buf[12..16].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    buf[16..20].copy_from_slice(&crc32c(payload).to_le_bytes());
    buf[HEADER_SIZE..HEADER_SIZE + payload.len()].copy_from_slice(payload);
    buf
}

/// Validate a page image read from disk; returns the payload slice.
pub fn decode_page(page_id: u64, buf: &[u8]) -> Result<&[u8]> {
    if buf.len() != PAGE_SIZE || buf[0..4] != MAGIC {
        return Err(StorageError::Corrupt(format!("page {page_id}: bad size or magic")));
    }
    let stored_id = u64::from_le_bytes(buf[4..12].try_into().unwrap());
    if stored_id != page_id {
        return Err(StorageError::Corrupt(format!(
            "page {page_id}: header claims page {stored_id}"
        )));
    }
    let len = u32::from_le_bytes(buf[12..16].try_into().unwrap()) as usize;
    if len > PAYLOAD_SIZE {
        return Err(StorageError::Corrupt(format!("page {page_id}: payload length {len}")));
    }
    let crc = u32::from_le_bytes(buf[16..20].try_into().unwrap());
    let payload = &buf[HEADER_SIZE..HEADER_SIZE + len];
    if crc32c(payload) != crc {
        return Err(StorageError::Corrupt(format!("page {page_id}: checksum mismatch")));
    }
    Ok(payload)
}

/// Number of pages a payload of `bytes` bytes spans.
pub fn pages_for(bytes: usize) -> usize {
    bytes.div_ceil(PAYLOAD_SIZE).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    type Crc = fn(&[u8]) -> u32;

    /// Every CRC32-C implementation this CPU can run: the table loop, and
    /// the instruction path where the CPU has SSE4.2.
    fn implementations() -> Vec<(&'static str, Crc)> {
        #[allow(unused_mut)]
        let mut impls: Vec<(&'static str, Crc)> = vec![("table", crc32c_table)];
        #[cfg(target_arch = "x86_64")]
        if sse42() {
            // SAFETY: guarded by the runtime SSE4.2 check above.
            impls.push(("sse4.2", |b| unsafe { crc32c_sse42(b) }));
        }
        impls
    }

    #[test]
    fn crc32c_known_vector() {
        // RFC 3720 appendix B.4, plus the common "123456789" check value.
        let iscsi_read: Vec<u8> = [
            [0x01, 0xc0, 0x00, 0x00],
            [0x00, 0x00, 0x00, 0x00],
            [0x00, 0x00, 0x00, 0x00],
            [0x00, 0x00, 0x00, 0x00],
            [0x14, 0x00, 0x00, 0x00],
            [0x00, 0x00, 0x04, 0x00],
            [0x00, 0x00, 0x00, 0x14],
            [0x00, 0x00, 0x00, 0x18],
            [0x28, 0x00, 0x00, 0x00],
            [0x00, 0x00, 0x00, 0x00],
            [0x02, 0x00, 0x00, 0x00],
            [0x00, 0x00, 0x00, 0x00],
        ]
        .concat();
        let vectors: [(Vec<u8>, u32); 6] = [
            (vec![0u8; 32], 0x8a91_36aa),
            (vec![0xffu8; 32], 0x62a8_ab43),
            ((0u8..32).collect(), 0x46dd_794e),
            ((0u8..32).rev().collect(), 0x113f_db5c),
            (iscsi_read, 0xd996_3a56),
            (b"123456789".to_vec(), 0xe306_9283),
        ];
        for (name, crc) in implementations() {
            for (input, want) in &vectors {
                assert_eq!(crc(input), *want, "{name} path on {input:02x?}");
            }
        }
        for (input, want) in &vectors {
            assert_eq!(crc32c(input), *want, "dispatched path on {input:02x?}");
        }
    }

    proptest! {
        // Any length up to a full page, starting at any offset within an
        // 8-byte word, so the word loop and the byte tail both see every
        // alignment and every remainder; half the cases are short inputs,
        // where the tail is most of the work.
        #![proptest_config(ProptestConfig { cases: 512 })]
        #[test]
        fn every_path_matches_the_table(
            seed in any::<u64>(),
            len in prop_oneof![0usize..=32, 0usize..=PAGE_SIZE],
            offset in 0usize..8,
        ) {
            let mut state = seed;
            let buf: Vec<u8> = (0..len + offset)
                .map(|_| {
                    state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                    (state >> 56) as u8
                })
                .collect();
            let bytes = &buf[offset..];
            let want = crc32c_table(bytes);
            for (name, crc) in implementations() {
                prop_assert_eq!(crc(bytes), want, "{} path, len {}, offset {}", name, len, offset);
            }
            prop_assert_eq!(crc32c(bytes), want);
        }
    }

    #[test]
    fn page_round_trip() {
        let payload = vec![7u8; 1000];
        let img = encode_page(42, &payload);
        assert_eq!(img.len(), PAGE_SIZE);
        assert_eq!(decode_page(42, &img).unwrap(), &payload[..]);
    }

    #[test]
    fn decode_rejects_wrong_id_and_corruption() {
        let img = encode_page(1, b"hello");
        assert!(decode_page(2, &img).is_err(), "id mismatch");
        let mut torn = img.clone();
        torn[HEADER_SIZE + 2] ^= 0xff;
        assert!(matches!(decode_page(1, &torn), Err(StorageError::Corrupt(_))));
        let mut bad_len = img;
        bad_len[12..16].copy_from_slice(&(PAYLOAD_SIZE as u32 + 1).to_le_bytes());
        assert!(decode_page(1, &bad_len).is_err());
    }

    #[test]
    fn pages_for_rounds_up() {
        assert_eq!(pages_for(0), 1);
        assert_eq!(pages_for(1), 1);
        assert_eq!(pages_for(PAYLOAD_SIZE), 1);
        assert_eq!(pages_for(PAYLOAD_SIZE + 1), 2);
    }
}
