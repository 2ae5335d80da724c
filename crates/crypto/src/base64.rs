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
///
/// Whole 3-byte groups are encoded 16 at a time into a stack buffer and
/// appended as one string slice, instead of one `push` per character.
pub fn encode_into(data: &[u8], variant: Variant, out: &mut String) {
    let table = alphabet(variant);
    out.reserve(match variant {
        Variant::Standard => data.len().div_ceil(3) * 4,
        Variant::UrlSafeNoPad => (data.len() * 4).div_ceil(3),
    });
    let mut groups = data.chunks_exact(3);
    let mut buf = [0u8; 64];
    loop {
        let mut n = 0;
        for group in groups.by_ref().take(buf.len() / 4) {
            let triple = (group[0] as u32) << 16 | (group[1] as u32) << 8 | group[2] as u32;
            buf[n] = table[(triple >> 18) as usize & 0x3f];
            buf[n + 1] = table[(triple >> 12) as usize & 0x3f];
            buf[n + 2] = table[(triple >> 6) as usize & 0x3f];
            buf[n + 3] = table[triple as usize & 0x3f];
            n += 4;
        }
        if n == 0 {
            break;
        }
        out.push_str(std::str::from_utf8(&buf[..n]).expect("the alphabets are ASCII"));
    }
    let rest = groups.remainder();
    if let [b0, tail @ ..] = rest {
        let b1 = tail.first().copied().unwrap_or(0);
        let triple = (*b0 as u32) << 16 | (b1 as u32) << 8;
        out.push(table[(triple >> 18) as usize & 0x3f] as char);
        out.push(table[(triple >> 12) as usize & 0x3f] as char);
        if tail.is_empty() {
            if variant == Variant::Standard {
                out.push_str("==");
            }
        } else {
            out.push(table[(triple >> 6) as usize & 0x3f] as char);
            if variant == Variant::Standard {
                out.push('=');
            }
        }
    }
}

/// Encode with the unpadded URL-safe alphabet (JOSE `base64url`).
pub fn encode_url(data: &[u8]) -> String {
    encode(data, Variant::UrlSafeNoPad)
}

/// The reverse of an alphabet: character → 6-bit value, 255 for a
/// character outside it.
const fn reverse(table: &[u8; 64]) -> [u8; 256] {
    let mut rev = [255u8; 256];
    let mut i = 0;
    while i < 64 {
        rev[table[i] as usize] = i as u8;
        i += 1;
    }
    rev
}

static STD_REV: [u8; 256] = reverse(STD);
static URL_REV: [u8; 256] = reverse(URL);

/// Decode `s` under the given variant.
pub fn decode(s: &str, variant: Variant) -> Result<Vec<u8>, Base64Error> {
    let chars = unpadded(s, variant)?;
    let mut out = vec![0u8; chars.len() * 3 / 4];
    decode_to(chars, variant, &mut out)?;
    Ok(out)
}

/// Decode unpadded URL-safe base64 (JOSE `base64url`).
pub fn decode_url(s: &str) -> Result<Vec<u8>, Base64Error> {
    decode(s, Variant::UrlSafeNoPad)
}

/// Decode unpadded URL-safe base64 that must decode to exactly `N`
/// bytes, without touching the heap. `None` on any error [`decode_url`]
/// reports, and on any other length.
pub fn decode_url_array<const N: usize>(s: &str) -> Option<[u8; N]> {
    let chars = unpadded(s, Variant::UrlSafeNoPad).ok()?;
    let mut out = [0u8; N];
    (chars.len() * 3 / 4 == N && decode_to(chars, Variant::UrlSafeNoPad, &mut out).is_ok())
        .then_some(out)
}

/// The characters of `s` that carry data: trailing padding stripped
/// (standard) or refused (URL-safe), and the length checked.
fn unpadded(s: &str, variant: Variant) -> Result<&[u8], Base64Error> {
    let stripped: &str = match variant {
        Variant::Standard => s.trim_end_matches('='),
        Variant::UrlSafeNoPad => {
            if s.contains('=') {
                return Err(Base64Error::UnexpectedPadding);
            }
            s
        }
    };
    let chars = stripped.as_bytes();
    if chars.len() % 4 == 1 {
        return Err(Base64Error::InvalidLength(s.len()));
    }
    Ok(chars)
}

/// Decode `chars` (already through [`unpadded`]) into `out`, which holds
/// exactly `chars.len() * 3 / 4` bytes. Errors name the first character
/// outside the alphabet, else non-zero trailing bits.
fn decode_to(chars: &[u8], variant: Variant, out: &mut [u8]) -> Result<(), Base64Error> {
    let rev = match variant {
        Variant::Standard => &STD_REV,
        Variant::UrlSafeNoPad => &URL_REV,
    };
    let value = |c: u8| match rev[c as usize] {
        255 => Err(Base64Error::InvalidChar(c as char)),
        v => Ok(v as u32),
    };
    let mut quads = chars.chunks_exact(4);
    for (quad, bytes) in (&mut quads).zip(out.chunks_exact_mut(3)) {
        let mut acc = 0;
        for &c in quad {
            acc = acc << 6 | value(c)?;
        }
        bytes.copy_from_slice(&acc.to_be_bytes()[1..]);
    }
    let rest = quads.remainder();
    if rest.is_empty() {
        return Ok(());
    }
    // Two characters carry one byte and four spare bits, three carry two
    // bytes and two spare bits; the spare bits must be zero.
    let mut acc = 0;
    for &c in rest {
        acc = acc << 6 | value(c)?;
    }
    let spare = 6 * rest.len() % 8;
    if acc & ((1 << spare) - 1) != 0 {
        return Err(Base64Error::NonCanonical);
    }
    let tail = (acc >> spare).to_be_bytes();
    let n = rest.len() - 1;
    let at = out.len() - n;
    out[at..].copy_from_slice(&tail[4 - n..]);
    Ok(())
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

    /// The one-`push`-per-character encoder [`encode_into`] replaced.
    fn encode_into_reference(data: &[u8], variant: Variant, out: &mut String) {
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

    /// The bit-at-a-time decoder, with its reverse table built per call,
    /// that [`decode`] replaced.
    fn decode_reference(s: &str, variant: Variant) -> Result<Vec<u8>, Base64Error> {
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
        if bits > 0 && (acc & ((1 << bits) - 1)) != 0 {
            return Err(Base64Error::NonCanonical);
        }
        Ok(out)
    }

    #[test]
    fn grouped_codec_matches_the_per_char_reference() {
        for n in 0..=300usize {
            let data: Vec<u8> = (0..n).map(|i| (i * 151 + n) as u8).collect();
            for variant in [Variant::Standard, Variant::UrlSafeNoPad] {
                let mut want = String::from("prefix");
                encode_into_reference(&data, variant, &mut want);
                let mut got = String::from("prefix");
                encode_into(&data, variant, &mut got);
                assert_eq!(got, want, "len {n} {variant:?}");
                let encoded = &got["prefix".len()..];
                // The encoding, and edits of it that hit each error case:
                // a bad character early and late, a dropped character
                // (impossible length or non-zero spare bits), padding,
                // and a last character with spare bits set.
                let mut inputs = vec![encoded.to_string(), format!("{encoded}=")];
                if !encoded.is_empty() {
                    let mut chars: Vec<char> = encoded.chars().collect();
                    inputs.push(chars[1..].iter().collect());
                    inputs.push(chars[..chars.len() - 1].iter().collect());
                    let last = chars.len() - 1;
                    chars[last] = if chars[last] == '/' { '_' } else { '/' };
                    inputs.push(chars.iter().collect());
                    chars[0] = '!';
                    inputs.push(chars.iter().collect());
                }
                for input in &inputs {
                    assert_eq!(
                        decode(input, variant),
                        decode_reference(input, variant),
                        "len {n} {variant:?} input {input:?}"
                    );
                }
                let array = decode_url_array::<64>(encoded);
                let want = (variant == Variant::UrlSafeNoPad && n == 64).then(|| data.clone());
                assert_eq!(array.map(|a| a.to_vec()), want, "len {n} {variant:?}");
            }
        }
    }

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
