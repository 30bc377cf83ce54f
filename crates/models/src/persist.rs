//! Weight persistence for [`Network`](crate::Network).
//!
//! A compact little-endian binary format: magic, version, one
//! length-prefixed `f32` blob per parameter tensor (conv filters, FC
//! weights, FC biases, in layer order). Velocities and hyper-parameters
//! are not persisted — a loaded network resumes with fresh optimizer
//! state, like Caffe's `.caffemodel` snapshots.

use std::fmt;

/// Magic bytes at the head of a weight file.
pub const MAGIC: &[u8; 4] = b"GCNN";
/// Current format version.
pub const VERSION: u32 = 1;

/// Errors from [`decode_blobs`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PersistError {
    /// Missing or wrong magic bytes.
    BadMagic,
    /// Unsupported format version.
    BadVersion(u32),
    /// Stream ended mid-record.
    Truncated,
    /// Blob count or length mismatched the receiving network.
    ShapeMismatch {
        /// Human-readable description.
        detail: String,
    },
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::BadMagic => write!(f, "not a gcnn weight file (bad magic)"),
            PersistError::BadVersion(v) => write!(f, "unsupported weight-file version {v}"),
            PersistError::Truncated => write!(f, "weight file truncated"),
            PersistError::ShapeMismatch { detail } => write!(f, "shape mismatch: {detail}"),
        }
    }
}

impl std::error::Error for PersistError {}

/// Encode parameter blobs into the wire format.
pub fn encode_blobs(blobs: &[&[f32]]) -> Vec<u8> {
    let payload: usize = blobs.iter().map(|b| 4 + 4 * b.len()).sum();
    let mut out = Vec::with_capacity(4 + 4 + 4 + payload);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&(blobs.len() as u32).to_le_bytes());
    for blob in blobs {
        out.extend_from_slice(&(blob.len() as u32).to_le_bytes());
        for v in *blob {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }
    out
}

/// Decode the wire format back into parameter blobs.
pub fn decode_blobs(bytes: &[u8]) -> Result<Vec<Vec<f32>>, PersistError> {
    let mut pos = 0usize;
    let take = |pos: &mut usize, n: usize| -> Result<&[u8], PersistError> {
        if *pos + n > bytes.len() {
            return Err(PersistError::Truncated);
        }
        let s = &bytes[*pos..*pos + n];
        *pos += n;
        Ok(s)
    };

    if take(&mut pos, 4)? != MAGIC {
        return Err(PersistError::BadMagic);
    }
    let version = u32::from_le_bytes(take(&mut pos, 4)?.try_into().expect("4 bytes"));
    if version != VERSION {
        return Err(PersistError::BadVersion(version));
    }
    let count = u32::from_le_bytes(take(&mut pos, 4)?.try_into().expect("4 bytes")) as usize;

    // Every blob takes at least its 4-byte length: a count the remaining
    // bytes cannot hold reserves no more than they can.
    let mut blobs = Vec::with_capacity(count.min((bytes.len() - pos) / 4));
    for _ in 0..count {
        let len = u32::from_le_bytes(take(&mut pos, 4)?.try_into().expect("4 bytes")) as usize;
        let raw = take(&mut pos, 4 * len)?;
        let blob = raw
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().expect("4 bytes")))
            .collect();
        blobs.push(blob);
    }
    if pos != bytes.len() {
        return Err(PersistError::ShapeMismatch {
            detail: format!("{} trailing bytes", bytes.len() - pos),
        });
    }
    Ok(blobs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let a = vec![1.0f32, -2.5, 3.25];
        let b = vec![0.0f32; 7];
        let bytes = encode_blobs(&[&a, &b]);
        let back = decode_blobs(&bytes).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back[0], a);
        assert_eq!(back[1], b);
    }

    #[test]
    fn empty_blob_list() {
        let bytes = encode_blobs(&[]);
        assert_eq!(decode_blobs(&bytes).unwrap().len(), 0);
    }

    #[test]
    fn rejects_bad_magic() {
        let mut bytes = encode_blobs(&[&[1.0]]);
        bytes[0] = b'X';
        assert_eq!(decode_blobs(&bytes), Err(PersistError::BadMagic));
    }

    #[test]
    fn rejects_bad_version() {
        let mut bytes = encode_blobs(&[&[1.0]]);
        bytes[4] = 9;
        assert!(matches!(
            decode_blobs(&bytes),
            Err(PersistError::BadVersion(9))
        ));
    }

    #[test]
    fn rejects_truncation() {
        let bytes = encode_blobs(&[&[1.0, 2.0, 3.0]]);
        assert_eq!(
            decode_blobs(&bytes[..bytes.len() - 2]),
            Err(PersistError::Truncated)
        );
    }

    /// A header claiming `u32::MAX` blobs over no payload is a truncated
    /// file, not a request for ≈ 100 GB of blob headers.
    #[test]
    fn rejects_huge_blob_count() {
        let mut bytes = encode_blobs(&[]);
        bytes[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(bytes.len(), 12);
        assert_eq!(decode_blobs(&bytes), Err(PersistError::Truncated));
    }

    #[test]
    fn rejects_trailing_garbage() {
        let mut bytes = encode_blobs(&[&[1.0]]);
        bytes.push(0);
        assert!(matches!(
            decode_blobs(&bytes),
            Err(PersistError::ShapeMismatch { .. })
        ));
    }
}
