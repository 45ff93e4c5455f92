//! Hostile-input suite for `bitstream::parse`: the parser reads files a
//! user hands to `prfpga dump`, so no input may make it panic. Every
//! property here only requires that parsing *returns* — `Ok` or `Err` —
//! except for cut streams, where losing the DESYNC command must be an
//! `Err`.
//!
//! Inputs range from pure noise (arbitrary bytes, arbitrary words around
//! a spliced-in SYNC word, packet-header-heavy word soup) to near misses
//! of real streams (one word flipped, one random word inserted, a cut at
//! a random point), which reach the deepest parser states.

use bitstream::packet::{ConfigRegister, Packet, SYNC_WORD};
use bitstream::parser::parse_words;
use bitstream::{generate, parse, BitstreamSpec, PartialBitstream};
use fabric::{Family, ResourceKind};
use prcost::PrrOrganization;
use proptest::prelude::*;

/// A small generated stream: the organization and placement vary, the
/// emitter needs only column-mix consistency.
fn stream(
    (family_ix, height, clb, dsp, bram, start_col): (usize, u32, u32, u32, u32, u32),
) -> PartialBitstream {
    let mut columns = vec![ResourceKind::Clb; clb as usize];
    columns.extend(std::iter::repeat_n(ResourceKind::Dsp, dsp as usize));
    columns.extend(std::iter::repeat_n(ResourceKind::Bram, bram as usize));
    let spec = BitstreamSpec {
        device: "xc_hostile".to_string(),
        module: format!("prm_{start_col}"),
        organization: PrrOrganization {
            family: Family::ALL[family_ix],
            height,
            clb_cols: clb,
            dsp_cols: dsp,
            bram_cols: bram,
        },
        start_col,
        start_row: 1,
        columns,
    };
    generate(&spec).unwrap()
}

/// Strategy for [`stream`]'s parameters.
fn spec_params() -> impl Strategy<Value = (usize, u32, u32, u32, u32, u32)> {
    (
        0usize..Family::ALL.len(),
        1u32..3,
        1u32..3,
        0u32..2,
        0u32..2,
        0u32..40,
    )
}

/// Words biased towards packet headers, so the parser walks deep into
/// its packet grammar instead of stopping at the first undecodable word.
fn packet_word() -> impl Strategy<Value = u32> {
    prop_oneof![
        any::<u32>(),
        Just(SYNC_WORD),
        Just(Packet::Noop.encode()),
        (0u32..14, 0u32..8).prop_map(|(addr, word_count)| {
            Packet::Type1Write {
                register: ConfigRegister::from_addr(addr).unwrap(),
                word_count,
            }
            .encode()
        }),
        (0u32..64).prop_map(|word_count| Packet::Type2Write { word_count }.encode()),
    ]
}

/// Index of the DESYNC command word: the final block is CRC write, CRC,
/// NOOP, LFRM, NOOP, START, NOOP, then the DESYNC command write and
/// three NOOPs, so the DESYNC code is the fourth word from the end.
fn desync_index(words: &[u32]) -> usize {
    words.len() - 4
}

#[test]
fn desync_index_points_at_the_desync_command() {
    let words = stream((0, 1, 1, 0, 0, 0)).words;
    let cmd = Packet::Type1Write {
        register: ConfigRegister::Cmd,
        word_count: 1,
    }
    .encode();
    let i = desync_index(&words);
    assert_eq!(words[i - 1], cmd);
    assert_eq!(words[i], bitstream::Command::Desync as u32);
    assert!(parse_words(&words[..i], true).is_err());
    assert!(parse_words(&words[..=i], true).is_ok());
}

proptest! {
    /// Arbitrary words with a SYNC word spliced in at a random position.
    #[test]
    fn arbitrary_words_around_sync(
        words in proptest::collection::vec(any::<u32>(), 0..256),
        at in any::<usize>(),
        strict in any::<bool>(),
    ) {
        let mut words = words;
        words.insert(at % (words.len() + 1), SYNC_WORD);
        let _ = parse_words(&words, strict);
    }

    /// Packet-header-heavy word soup after a SYNC word.
    #[test]
    fn packet_soup_after_sync(
        words in proptest::collection::vec(packet_word(), 0..256),
        strict in any::<bool>(),
    ) {
        let mut stream = vec![SYNC_WORD];
        stream.extend(words);
        let _ = parse_words(&stream, strict);
    }

    /// Arbitrary bytes, of any length (misaligned lengths included).
    #[test]
    fn arbitrary_bytes(
        bytes in proptest::collection::vec(any::<u8>(), 0..1024),
        strict in any::<bool>(),
    ) {
        let result = parse(&bytes, strict);
        if !bytes.len().is_multiple_of(4) {
            prop_assert!(result.is_err());
        }
    }

    /// A generated stream with one word flipped by a random nonzero mask.
    #[test]
    fn one_word_flipped(
        params in spec_params(),
        at in any::<usize>(),
        mask in 1u32..u32::MAX,
        strict in any::<bool>(),
    ) {
        let mut words = stream(params).words;
        let i = at % words.len();
        words[i] ^= mask;
        let _ = parse_words(&words, strict);
    }

    /// A generated stream with one random word inserted.
    #[test]
    fn one_word_inserted(
        params in spec_params(),
        at in any::<usize>(),
        word in packet_word(),
        strict in any::<bool>(),
    ) {
        let mut words = stream(params).words;
        words.insert(at % (words.len() + 1), word);
        let _ = parse_words(&words, strict);
    }

    /// A generated stream cut at a random word or byte — anywhere, and
    /// within the final 16 words around the DESYNC command: a cut before
    /// DESYNC is an error, at word and at byte granularity.
    #[test]
    fn cut_streams(params in spec_params(), at in any::<usize>(), strict in any::<bool>()) {
        let bs = stream(params);
        let desync = desync_index(&bs.words);
        let len = bs.words.len();
        for cut in [at % len, len - 1 - at % 16] {
            let result = parse_words(&bs.words[..cut], strict);
            if cut <= desync {
                prop_assert!(result.is_err(), "cut at word {} parsed", cut);
            }
        }
        let bytes = bs.to_bytes();
        for cut in [at % bytes.len(), bytes.len() - 1 - at % 64] {
            let result = parse(&bytes[..cut], strict);
            if cut < 4 * (desync + 1) {
                prop_assert!(result.is_err(), "cut at byte {} parsed", cut);
            }
        }
    }
}
