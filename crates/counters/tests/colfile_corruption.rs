//! Corruption suite for the binary column-file dataset format: drives
//! the [`spire_core::fault`] corruptors over pristine `SPIRECOL` images
//! and proves the integrity contract end to end through
//! [`Dataset::from_colfile_bytes`] — damage is always refused (strict),
//! quarantined with the surviving rows bit-identical (lenient), or
//! provably harmless (reserved/padding bytes), and is never silently
//! folded into the decoded data.
//!
//! The header and directory checksums prove integrity, not honesty, so
//! the suite also forges files whose checksums are valid by construction:
//! hostile directory counts and byte soup must come back as a typed
//! error, never a panic or an allocation abort.

use proptest::prelude::*;
use spire_core::colfile::{self, ColFileReport, ColFileWriter};
use spire_core::fault::{flip_byte, truncate_bytes, FaultRng};
use spire_core::snapshot::fnv1a64;
use spire_core::{Sample, SampleSet, SnapshotMode, SpireError};
use spire_counters::Dataset;

/// A small but representative dataset: two sections, several metrics,
/// an ingest report riding in the metadata blob, and awkward values
/// (subnormals, huge magnitudes) whose bits must survive exactly.
fn corpus() -> Dataset {
    let csv = "\
1.0,1000,,inst_retired.any,1000000,100.00,,
1.0,500,,cpu_clk_unhalted.thread,1000000,100.00,,
1.0,120,,evt.a,250000,25.00,,
garbage line
";
    let out = spire_counters::ingest_perf_csv(csv, &spire_counters::IngestConfig::default());
    let mut d = Dataset::new();
    d.insert_with_report("capture", out.samples, out.report);
    let mut set = SampleSet::new();
    for i in 1..12 {
        let w = f64::MIN_POSITIVE * i as f64;
        set.push(Sample::new("tiny", 1.0, w, 1.0).unwrap());
        set.push(Sample::new("huge", 1e300, 1e297 * i as f64, 3.0).unwrap());
    }
    d.insert("synthetic", set);
    d
}

/// Bitwise equality of two columns' raw rows. The format guarantees
/// chunk granularity, and with default chunking every test column is a
/// single chunk — so a surviving column must be bit-identical to the
/// original, wholesale.
fn column_identical(a: &spire_core::MetricColumn, b: &spire_core::MetricColumn) -> bool {
    let eq = |x: &[f64], y: &[f64]| {
        x.len() == y.len() && x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits())
    };
    a.metric() == b.metric()
        && eq(a.times(), b.times())
        && eq(a.works(), b.works())
        && eq(a.metric_deltas(), b.metric_deltas())
}

/// The lenient-salvage soundness invariant: every surviving column is
/// bit-identical to its original (single-chunk columns are all or
/// nothing), every quarantine entry names a real column, and the row
/// accounting adds up.
fn assert_salvage_sound(original: &Dataset, salvaged: &Dataset, report: &ColFileReport) {
    for (label, set) in salvaged.iter() {
        let source = original.get(label).expect("salvage invented a section");
        for col in set.columns() {
            let src = source
                .column(col.metric())
                .expect("salvage invented a column");
            assert!(
                column_identical(src, col),
                "surviving column {}/{} differs from the source",
                label,
                col.metric()
            );
        }
    }
    let dropped: u64 = report.quarantined.iter().map(|q| q.rows).sum();
    assert_eq!(report.rows_dropped, dropped, "row accounting is off");
    for q in &report.quarantined {
        let source = original.get(&q.label).expect("quarantine names a section");
        assert!(
            source
                .columns()
                .iter()
                .any(|c| c.metric().as_str() == q.metric),
            "quarantine names a phantom metric {}",
            q.metric
        );
    }
}

#[test]
fn every_single_byte_flip_is_refused_quarantined_or_harmless() {
    let original = corpus();
    let pristine = original.to_colfile_bytes();
    let original_json = original.to_json().unwrap();
    for pos in 0..pristine.len() {
        let mut bytes = pristine.clone();
        bytes[pos] ^= 1 << (pos % 8);

        // Strict: any detected damage refuses the load; an accepted load
        // must be bit-identical to the source. Undetectable flips exist
        // only in bytes the format ignores (reserved header tail).
        match Dataset::from_colfile_bytes(&bytes, SnapshotMode::Strict) {
            Err(_) => {}
            Ok((d, report)) => {
                assert!(report.is_clean(), "strict load with dirty report");
                assert_eq!(
                    d.to_json().unwrap(),
                    original_json,
                    "silently wrong strict decode after flipping byte {pos}"
                );
            }
        }

        // Lenient: container damage still refuses; chunk damage must be
        // quarantined with sound salvage, never silently absorbed.
        match Dataset::from_colfile_bytes(&bytes, SnapshotMode::Lenient) {
            Err(_) => {}
            Ok((d, report)) => {
                if report.is_clean() {
                    assert_eq!(
                        d.to_json().unwrap(),
                        original_json,
                        "silently wrong lenient decode after flipping byte {pos}"
                    );
                } else {
                    assert_salvage_sound(&original, &d, &report);
                }
            }
        }
    }
}

#[test]
fn seeded_multi_flip_storms_never_decode_silently_wrong() {
    let original = corpus();
    let pristine = original.to_colfile_bytes();
    let original_json = original.to_json().unwrap();
    for seed in 0..300u64 {
        let mut rng = FaultRng::new(0xc0_1f11e ^ seed);
        let mut bytes = pristine.clone();
        for _ in 0..=(seed % 4) {
            flip_byte(&mut bytes, &mut rng);
        }
        if let Ok((d, report)) = Dataset::from_colfile_bytes(&bytes, SnapshotMode::Lenient) {
            if report.is_clean() {
                assert_eq!(d.to_json().unwrap(), original_json, "seed {seed}");
            } else {
                assert_salvage_sound(&original, &d, &report);
            }
        }
        if let Ok((d, report)) = Dataset::from_colfile_bytes(&bytes, SnapshotMode::Strict) {
            assert!(report.is_clean(), "strict load with dirty report");
            assert_eq!(d.to_json().unwrap(), original_json, "seed {seed}");
        }
    }
}

#[test]
fn every_truncation_point_is_refused_in_both_modes() {
    let pristine = corpus().to_colfile_bytes();
    for cut in 0..pristine.len() {
        let short = &pristine[..cut];
        assert!(
            Dataset::from_colfile_bytes(short, SnapshotMode::Strict).is_err(),
            "strict accepted a {cut}-byte truncation of {} bytes",
            pristine.len()
        );
        assert!(
            Dataset::from_colfile_bytes(short, SnapshotMode::Lenient).is_err(),
            "lenient accepted a {cut}-byte truncation of {} bytes",
            pristine.len()
        );
    }
    // The fault-module corruptor agrees with manual slicing.
    let mut rng = FaultRng::new(7);
    for _ in 0..50 {
        let fraction = (rng.index(1000) as f64) / 1000.0;
        let short = truncate_bytes(&pristine, fraction);
        if short.len() < pristine.len() {
            assert!(Dataset::from_colfile_bytes(short, SnapshotMode::Lenient).is_err());
        }
    }
}

#[test]
fn chunk_quarantine_is_per_chunk_not_per_column() {
    // Small chunks so one column spans several: damage to one chunk must
    // drop exactly that chunk's rows and keep the neighbours bitwise.
    let mut set = SampleSet::new();
    for i in 1..=10 {
        set.push(Sample::new("m", 1.0, i as f64, 2.0).unwrap());
    }
    let mut writer = ColFileWriter::with_chunk_rows(4);
    writer.add_section("w", &set);
    let pristine = writer.finish();

    // Chunks are laid out from offset 64 (4 rows, 4 rows, 2 rows);
    // corrupt a data byte inside the first chunk.
    let mut bytes = pristine.clone();
    bytes[70] ^= 0x20;

    assert!(Dataset::from_colfile_bytes(&bytes, SnapshotMode::Strict).is_err());
    let (d, report) = Dataset::from_colfile_bytes(&bytes, SnapshotMode::Lenient).unwrap();
    assert_eq!(report.quarantined.len(), 1);
    assert_eq!(report.quarantined[0].chunk, 0);
    assert_eq!(report.quarantined[0].rows, 4);
    assert_eq!(report.rows_dropped, 4);
    let survivors = d.get("w").unwrap().columns()[0].works();
    let expected: Vec<f64> = (5..=10).map(|i| i as f64).collect();
    assert_eq!(survivors, &expected[..], "wrong rows survived");
}

// ---------------------------------------------------------------------------
// Forged files: valid checksums around hostile contents
// ---------------------------------------------------------------------------

/// Builds a column-file image around `data` (the chunk region after the
/// 64-byte header) and `directory`, with every header field and both
/// checksums computed as a writer would.
fn forge(data: &[u8], directory: &[u8]) -> Vec<u8> {
    let mut image = vec![0u8; 64];
    image.extend_from_slice(data);
    let dir_offset = image.len() as u64;
    image.extend_from_slice(directory);
    let total = image.len() as u64;
    image[..8].copy_from_slice(b"SPIRECOL");
    image[8..12].copy_from_slice(&1u32.to_le_bytes());
    image[12..16].copy_from_slice(&0x0102_0304u32.to_le_bytes());
    image[16..24].copy_from_slice(&dir_offset.to_le_bytes());
    image[24..32].copy_from_slice(&(directory.len() as u64).to_le_bytes());
    image[32..40].copy_from_slice(&total.to_le_bytes());
    image[40..48].copy_from_slice(&fnv1a64(directory).to_le_bytes());
    let head = fnv1a64(&image[..48]);
    image[48..56].copy_from_slice(&head.to_le_bytes());
    image
}

/// A pristine image of one six-row column in chunks of `chunk_rows`,
/// split into its chunk region and its directory text.
fn pristine_parts(chunk_rows: usize) -> (Vec<u8>, String) {
    let mut set = SampleSet::new();
    for i in 1..=6 {
        set.push(Sample::new("m", 1.0, i as f64, 2.0).unwrap());
    }
    let mut writer = ColFileWriter::with_chunk_rows(chunk_rows);
    writer.add_section("w", &set);
    let image = writer.finish();
    let dir_offset = u64::from_le_bytes(image[16..24].try_into().unwrap()) as usize;
    let directory = String::from_utf8(image[dir_offset..].to_vec()).unwrap();
    (image[64..dir_offset].to_vec(), directory)
}

/// Replaces the `nth` occurrence of `from` in `text`.
fn replace_nth(text: &str, from: &str, to: &str, nth: usize) -> String {
    let (at, _) = text
        .match_indices(from)
        .nth(nth)
        .unwrap_or_else(|| panic!("`{from}` occurs fewer than {} times in {text}", nth + 1));
    format!("{}{to}{}", &text[..at], &text[at + from.len()..])
}

/// Asserts that both modes refuse `image` as container damage.
fn assert_refused_as_format_damage(image: &[u8]) {
    for mode in [SnapshotMode::Strict, SnapshotMode::Lenient] {
        let err = colfile::read(image, mode).expect_err("a forged count must be refused");
        assert!(
            matches!(err, SpireError::SnapshotFormat { .. }),
            "{mode:?}: {err}"
        );
    }
}

#[test]
fn forged_wrapper_round_trips_a_pristine_directory() {
    for chunk_rows in [4, 4096] {
        let (data, directory) = pristine_parts(chunk_rows);
        let image = forge(&data, directory.as_bytes());
        for mode in [SnapshotMode::Strict, SnapshotMode::Lenient] {
            let contents = colfile::read(&image, mode).expect("an honest forged image loads");
            assert_eq!(contents.sections[0].1.len(), 6);
        }
    }
}

#[test]
fn column_rows_beyond_the_file_are_refused_before_allocating() {
    // One chunk: the column's `"rows":6` comes first, the chunk's second.
    // 10^18 rows would ask for 8 EB per array before any chunk is read.
    let (data, directory) = pristine_parts(4096);
    for rows in ["1000000000000000000", "18446744073709551615"] {
        let forged = replace_nth(&directory, "\"rows\":6,", &format!("\"rows\":{rows},"), 0);
        assert_refused_as_format_damage(&forge(&data, forged.as_bytes()));
    }
}

#[test]
fn chunk_rows_that_overflow_are_refused() {
    // 2^61 rows * 8 bytes overflows a 64-bit byte count.
    let huge = "\"rows\":2305843009213693952,";
    let (data, directory) = pristine_parts(4096);
    // A chunk that disagrees with its column's count.
    let disagreeing = replace_nth(&directory, "\"rows\":6,", huge, 1);
    // A column and its only chunk that agree on an impossible count.
    let agreeing = directory.replace("\"rows\":6,", huge);
    for forged in [disagreeing, agreeing] {
        assert_refused_as_format_damage(&forge(&data, forged.as_bytes()));
    }

    // Two chunks whose counts wrap around to the column's count:
    // (2^64 - 1) + 7 = 6 in 64-bit arithmetic.
    let (data, directory) = pristine_parts(4);
    let wrapping = replace_nth(
        &directory,
        "\"rows\":4,",
        "\"rows\":18446744073709551615,",
        0,
    );
    let wrapping = replace_nth(&wrapping, "\"rows\":2,", "\"rows\":7,", 0);
    assert_refused_as_format_damage(&forge(&data, wrapping.as_bytes()));
}

/// `read` may accept a file or refuse it with a typed error; anything
/// else (including a panic, which fails the test outright) is a bug.
fn assert_typed_outcome(image: &[u8]) -> Result<(), TestCaseError> {
    for mode in [SnapshotMode::Strict, SnapshotMode::Lenient] {
        match colfile::read(image, mode) {
            Ok(_)
            | Err(SpireError::SnapshotFormat { .. })
            | Err(SpireError::ColumnChunkCorrupt { .. }) => {}
            Err(other) => prop_assert!(false, "untyped refusal in {mode:?}: {other}"),
        }
        // The dataset layer on top adds only metadata parsing.
        let _ = Dataset::from_colfile_bytes(image, mode);
    }
    Ok(())
}

/// Directory numbers: honest row counts first, then values that probe
/// every count check — zero, 2^32, 2^61, 10^18 (also as a float), the
/// u64 edges, and values serde must refuse.
const NUMBERS: [&str; 18] = [
    "1",
    "2",
    "3",
    "4",
    "6",
    "8",
    "16",
    "0",
    "64",
    "1000",
    "4294967296",
    "2305843009213693952",
    "1000000000000000000",
    "1e18",
    "18446744073709551615",
    "18446744073709551616",
    "-1",
    "null",
];
const HONEST: usize = 7;

/// An index into [`NUMBERS`], honest three times in four.
fn number_index() -> impl Strategy<Value = usize> {
    prop_oneof![3 => 0..HONEST, 1 => 0..NUMBERS.len()]
}

/// One forged chunk entry: rows, offset (`Ok(k)` is the `k`-th 64-byte
/// slot of the data region, `Err(i)` is `NUMBERS[i]`), and whether to
/// give it the checksum its span really has.
type ChunkSpec = (usize, Result<usize, usize>, bool);
/// One forged column: metric name, rows (`None` means the sum of its
/// chunks), and chunks.
type ColumnSpec = (usize, Option<usize>, Vec<ChunkSpec>);
/// One forged section: label and columns.
type SectionSpec = (usize, Vec<ColumnSpec>);

fn directory_spec() -> impl Strategy<Value = Vec<SectionSpec>> {
    let offset = prop_oneof![
        3 => (0usize..12).prop_map(Ok),
        1 => (0..NUMBERS.len()).prop_map(Err),
    ];
    let chunk = (number_index(), offset, prop::bool::weighted(0.9));
    let rows = prop_oneof![3 => Just(None), 1 => (0..NUMBERS.len()).prop_map(Some)];
    let column = (0usize..4, rows, prop::collection::vec(chunk, 0..4));
    let section = (0usize..3, prop::collection::vec(column, 0..4));
    prop::collection::vec(section, 1..3)
}

/// Renders a directory spec as JSON text over the chunk region `data`,
/// giving chunks that lie inside it their true checksum when the spec
/// asks for it.
fn render_directory(sections: &[SectionSpec], data: &[u8], meta: usize) -> String {
    let labels = ["w", "w", "x"];
    let metrics = ["a", "b", "b", "c"];
    let render_sections: Vec<String> = sections
        .iter()
        .map(|(label, columns)| {
            let render_columns: Vec<String> = columns
                .iter()
                .map(|(metric, rows, chunks)| {
                    let mut sum = Some(0u64);
                    let render_chunks: Vec<String> = chunks
                        .iter()
                        .map(|&(rows, offset, honest)| {
                            let rows_value = NUMBERS[rows].parse::<u64>().ok();
                            sum = sum.zip(rows_value).and_then(|(a, b)| a.checked_add(b));
                            let (offset_text, offset_value) = match offset {
                                Ok(slot) => {
                                    let at = 64 + 64 * slot as u64;
                                    (at.to_string(), Some(at))
                                }
                                Err(i) => (NUMBERS[i].to_owned(), NUMBERS[i].parse().ok()),
                            };
                            let span = rows_value.zip(offset_value).and_then(|(r, at)| {
                                let len = r.checked_mul(8)?.checked_next_multiple_of(64)?.checked_mul(3)?;
                                let start = usize::try_from(at.checked_sub(64)?).ok()?;
                                data.get(start..start.checked_add(usize::try_from(len).ok()?)?)
                            });
                            let checksum = span.filter(|_| honest).map_or(0, fnv1a64);
                            format!(
                                "{{\"rows\":{},\"offset\":{offset_text},\"checksum\":\"{checksum:016x}\"}}",
                                NUMBERS[rows]
                            )
                        })
                        .collect();
                    let rows_text = match rows {
                        Some(i) => NUMBERS[*i].to_owned(),
                        None => sum.unwrap_or(0).to_string(),
                    };
                    format!(
                        "{{\"metric\":\"{}\",\"rows\":{rows_text},\"chunks\":[{}]}}",
                        metrics[*metric],
                        render_chunks.join(",")
                    )
                })
                .collect();
            format!(
                "{{\"label\":\"{}\",\"columns\":[{}]}}",
                labels[*label],
                render_columns.join(",")
            )
        })
        .collect();
    let metas = ["", "{}", "not json", "{\"reports\":[]}"];
    format!(
        "{{\"sections\":[{}],\"meta\":{:?}}}",
        render_sections.join(","),
        metas[meta]
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary bytes, bare or behind the magic and version.
    #[test]
    fn byte_soup_reads_to_a_typed_outcome(
        bytes in prop::collection::vec(any::<u8>(), 0..512),
        magic in any::<bool>(),
    ) {
        let mut image = bytes;
        if magic {
            let mut prefixed = b"SPIRECOL\x01\0\0\0".to_vec();
            prefixed.extend_from_slice(&image);
            image = prefixed;
        }
        assert_typed_outcome(&image)?;
    }

    /// Arbitrary bytes behind a valid header: a random split of the body
    /// is named as the directory, with its checksum recomputed.
    #[test]
    fn soup_behind_a_valid_header_reads_to_a_typed_outcome(
        body in prop::collection::vec(any::<u8>(), 0..512),
        split in any::<usize>(),
    ) {
        let split = split % (body.len() + 1);
        assert_typed_outcome(&forge(&body[..split], &body[split..]))?;
    }

    /// Arbitrary directory JSON over arbitrary chunk bytes, re-wrapped
    /// with valid checksums; chunks that fit the data region often carry
    /// their true checksum so decoding and set assembly run too.
    #[test]
    fn forged_directories_read_to_a_typed_outcome(
        sections in directory_spec(),
        data_words in prop::collection::vec(any::<u64>(), 0..384),
        meta in 0usize..4,
    ) {
        let data: Vec<u8> = data_words.iter().flat_map(|w| w.to_le_bytes()).collect();
        let directory = render_directory(&sections, &data, meta);
        assert_typed_outcome(&forge(&data, directory.as_bytes()))?;
    }
}
