//! Base64 (RFC 4648): standard and URL-safe alphabets, with and without
//! padding. JWTs use the unpadded URL-safe variant.

const STD: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";
const URL: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789-_";

/// Which alphabet / padding convention to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// Standard alphabet with `=` padding.
    Standard,
    /// URL-safe alphabet, no padding (the JOSE convention).
    UrlSafeNoPad,
}

fn alphabet(v: Variant) -> &'static [u8; 64] {
    match v {
        Variant::Standard => STD,
        Variant::UrlSafeNoPad => URL,
    }
}

/// Encode `data` under the given variant.
pub fn encode(data: &[u8], variant: Variant) -> String {
    let mut out = String::with_capacity(data.len().div_ceil(3) * 4);
    encode_into(data, variant, &mut out);
    out
}

/// Append the encoding of `data` under the given variant to `out`.
pub fn encode_into(data: &[u8], variant: Variant, out: &mut String) {
    let table = alphabet(variant);
    for chunk in data.chunks(3) {
        let b0 = chunk[0] as u32;
        let b1 = *chunk.get(1).unwrap_or(&0) as u32;
        let b2 = *chunk.get(2).unwrap_or(&0) as u32;
        let triple = (b0 << 16) | (b1 << 8) | b2;
        out.push(table[(triple >> 18) as usize & 0x3f] as char);
        out.push(table[(triple >> 12) as usize & 0x3f] as char);
        if chunk.len() > 1 {
            out.push(table[(triple >> 6) as usize & 0x3f] as char);
        } else if variant == Variant::Standard {
            out.push('=');
        }
        if chunk.len() > 2 {
            out.push(table[triple as usize & 0x3f] as char);
        } else if variant == Variant::Standard {
            out.push('=');
        }
    }
}

/// Encode with the unpadded URL-safe alphabet (JOSE `base64url`).
pub fn encode_url(data: &[u8]) -> String {
    encode(data, Variant::UrlSafeNoPad)
}

/// Decode `s` under the given variant.
pub fn decode(s: &str, variant: Variant) -> Result<Vec<u8>, Base64Error> {
    let table = alphabet(variant);
    let mut rev = [255u8; 256];
    for (i, &c) in table.iter().enumerate() {
        rev[c as usize] = i as u8;
    }
    let stripped: &str = match variant {
        Variant::Standard => s.trim_end_matches('='),
        Variant::UrlSafeNoPad => {
            if s.contains('=') {
                return Err(Base64Error::UnexpectedPadding);
            }
            s
        }
    };
    let bytes = stripped.as_bytes();
    if bytes.len() % 4 == 1 {
        return Err(Base64Error::InvalidLength(s.len()));
    }
    let mut out = Vec::with_capacity(bytes.len() * 3 / 4);
    let mut acc: u32 = 0;
    let mut bits = 0u32;
    for &c in bytes {
        let v = rev[c as usize];
        if v == 255 {
            return Err(Base64Error::InvalidChar(c as char));
        }
        acc = (acc << 6) | v as u32;
        bits += 6;
        if bits >= 8 {
            bits -= 8;
            out.push((acc >> bits) as u8);
        }
    }
    // Any leftover bits must be zero (canonical encoding check).
    if bits > 0 && (acc & ((1 << bits) - 1)) != 0 {
        return Err(Base64Error::NonCanonical);
    }
    Ok(out)
}

/// Decode unpadded URL-safe base64 (JOSE `base64url`).
pub fn decode_url(s: &str) -> Result<Vec<u8>, Base64Error> {
    decode(s, Variant::UrlSafeNoPad)
}

/// Errors from base64 decoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Base64Error {
    /// A character outside the alphabet was found.
    InvalidChar(char),
    /// Input length is impossible for base64.
    InvalidLength(usize),
    /// Padding found where the variant forbids it.
    UnexpectedPadding,
    /// Trailing bits were not zero.
    NonCanonical,
}

impl std::fmt::Display for Base64Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Base64Error::InvalidChar(c) => write!(f, "invalid base64 character {c:?}"),
            Base64Error::InvalidLength(n) => write!(f, "invalid base64 length {n}"),
            Base64Error::UnexpectedPadding => write!(f, "unexpected '=' padding"),
            Base64Error::NonCanonical => write!(f, "non-canonical base64 trailing bits"),
        }
    }
}

impl std::error::Error for Base64Error {}

#[cfg(test)]
mod tests {
    use super::*;

    // RFC 4648 §10 test vectors.
    #[test]
    fn rfc4648_standard() {
        let cases: [(&[u8], &str); 7] = [
            (b"", ""),
            (b"f", "Zg=="),
            (b"fo", "Zm8="),
            (b"foo", "Zm9v"),
            (b"foob", "Zm9vYg=="),
            (b"fooba", "Zm9vYmE="),
            (b"foobar", "Zm9vYmFy"),
        ];
        for (input, expect) in cases {
            assert_eq!(encode(input, Variant::Standard), expect);
            assert_eq!(decode(expect, Variant::Standard).unwrap(), input);
        }
    }

    #[test]
    fn url_safe_no_pad() {
        let data = [0xfb, 0xff, 0xfe];
        let s = encode_url(&data);
        assert_eq!(s, "-__-");
        assert_eq!(decode_url(&s).unwrap(), data);
        // Standard encoding of the same bytes differs.
        assert_eq!(encode(&data, Variant::Standard), "+//+");
    }

    #[test]
    fn rejects_padding_in_url_variant() {
        assert_eq!(decode_url("Zg=="), Err(Base64Error::UnexpectedPadding));
    }

    #[test]
    fn rejects_bad_chars_and_lengths() {
        assert_eq!(decode_url("a"), Err(Base64Error::InvalidLength(1)));
        assert!(matches!(
            decode_url("ab!c"),
            Err(Base64Error::InvalidChar('!'))
        ));
    }

    #[test]
    fn rejects_non_canonical() {
        // "Zh" decodes to one byte with nonzero trailing bits.
        assert_eq!(decode_url("Zh"), Err(Base64Error::NonCanonical));
        assert!(decode_url("Zg").is_ok());
    }

    #[test]
    fn roundtrip_all_lengths() {
        for n in 0..64usize {
            let data: Vec<u8> = (0..n as u8).collect();
            for v in [Variant::Standard, Variant::UrlSafeNoPad] {
                let enc = encode(&data, v);
                assert_eq!(decode(&enc, v).unwrap(), data, "len {n} variant {v:?}");
            }
        }
    }
}
