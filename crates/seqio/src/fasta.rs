//! FASTA reading and writing.
//!
//! The paper's prototype (SCORIS-N) takes its two banks directly from FASTA
//! files (section 2.1: "Bank indexing is directly performed from FASTA format
//! input files"). This module parses FASTA text into a [`Bank`] in one pass,
//! tolerating the usual real-world variations: multi-line sequences, blank
//! lines, `\r\n` endings, white space inside a line, `;` comment lines,
//! lower-case residues, `U` for `T` and IUPAC ambiguity codes.
//!
//! The reader works on bytes, never on `str`: lines are cut out of the
//! reader's own buffer at `\n` (a line is copied only when it straddles
//! two buffer fills) and a sequence line is translated through a 256-entry
//! table straight into the bank's code array — one table load and one
//! store per residue, no UTF-8 validation, no per-record staging `Vec`.
//! The table also classifies what is not a residue, so one OR over the
//! translated line tells a clean line from one that needs the careful
//! path (white space to drop, or a byte to refuse).
//!
//! FASTA is an ASCII format and the reader holds it to that: any byte
//! `≥ 0x80`, on a header, sequence or comment line, is a
//! [`SeqIoError::Format`] naming the line. Other malformed input (data
//! before the first header, an empty identifier) is the same error
//! variant; [`SeqIoError::Io`] is left for failures of the reader itself.

use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::path::Path;

use crate::alphabet::nuc_from_char;
use crate::bank::{Bank, BankBuilder};
use crate::error::SeqIoError;

/// An owned FASTA record (header + raw sequence text).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FastaRecord {
    /// Identifier: first whitespace-delimited token after `>`.
    pub id: String,
    /// Full header line after `>`, including the description.
    pub header: String,
    /// Sequence as ASCII (exactly as read, case preserved).
    pub seq: String,
}

/// Table entry of a byte that is dropped from a sequence line (ASCII
/// white space).
const SKIP: u8 = 0x40;
/// Table entry of a byte no FASTA line may hold (`≥ 0x80`).
const BAD: u8 = 0x80;

/// Byte → bank code for sequence lines: [`nuc_from_char`] for every ASCII
/// byte that is not white space, [`SKIP`] for white space, [`BAD`] for
/// the upper half. Codes stay below `SKIP`, so `entry & (SKIP | BAD)`
/// separates residues from the rest.
static SEQ_LUT: [u8; 256] = {
    let mut t = [BAD; 256];
    let mut byte = 0u8;
    while byte < 0x80 {
        t[byte as usize] = if byte.is_ascii_whitespace() {
            SKIP
        } else {
            nuc_from_char(byte)
        };
        byte += 1;
    }
    t
};

/// White space as the header tokeniser sees it: `str::split_whitespace`
/// restricted to ASCII, i.e. `u8::is_ascii_whitespace` plus vertical tab.
fn is_header_space(b: u8) -> bool {
    b.is_ascii_whitespace() || b == 0x0B
}

/// Message of the format error for a byte `≥ 0x80`.
const NON_ASCII: &str = "non-ASCII byte: FASTA is an ASCII format";

fn format_error(line: usize, message: &str) -> SeqIoError {
    SeqIoError::Format {
        line,
        message: message.into(),
    }
}

/// Calls `f(line_number, line)` for every `\n`-terminated line of
/// `reader` (and a last unterminated one), the terminator removed. Lines
/// are borrowed from the reader's buffer; only one that straddles two
/// fills is assembled in a side buffer first.
fn for_each_line<R: BufRead>(
    mut reader: R,
    mut f: impl FnMut(usize, &[u8]) -> Result<(), SeqIoError>,
) -> Result<(), SeqIoError> {
    let mut line_no = 0usize;
    // Head of a line whose terminator the buffer did not hold yet.
    let mut partial: Vec<u8> = Vec::new();
    loop {
        let buf = match reader.fill_buf() {
            Ok(buf) => buf,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        };
        if buf.is_empty() {
            break;
        }
        let mut rest = buf;
        while let Some(nl) = rest.iter().position(|&b| b == b'\n') {
            line_no += 1;
            if partial.is_empty() {
                f(line_no, &rest[..nl])?;
            } else {
                partial.extend_from_slice(&rest[..nl]);
                f(line_no, &partial)?;
                partial.clear();
            }
            rest = &rest[nl + 1..];
        }
        partial.extend_from_slice(rest);
        let filled = buf.len();
        reader.consume(filled);
    }
    if !partial.is_empty() {
        f(line_no + 1, &partial)?;
    }
    Ok(())
}

/// Parses FASTA text into a [`Bank`].
///
/// Returns a [`SeqIoError::Format`] if sequence data precedes the first
/// header, if a record has an empty identifier, or on a non-ASCII byte.
pub fn parse_fasta(text: &str) -> Result<Bank, SeqIoError> {
    parse(text.as_bytes(), BankBuilder::new())
}

/// Reads FASTA from any [`Read`] implementation into a [`Bank`].
pub fn read_fasta<R: Read>(reader: R) -> Result<Bank, SeqIoError> {
    parse(BufReader::new(reader), BankBuilder::new())
}

/// Reads a FASTA file from disk into a [`Bank`].
pub fn read_fasta_file<P: AsRef<Path>>(path: P) -> Result<Bank, SeqIoError> {
    let file = std::fs::File::open(path)?;
    // A FASTA file is residues plus a few per cent of headers and line
    // ends, so its size is a tight upper bound for the code array: one
    // allocation instead of a doubling series.
    let size = file.metadata().map_or(0, |m| m.len());
    let builder = BankBuilder::with_capacity(usize::try_from(size).unwrap_or(0), 0);
    parse(BufReader::new(file), builder)
}

/// The parser proper: `builder` arrives empty and possibly pre-sized.
fn parse<R: BufRead>(reader: R, mut builder: BankBuilder) -> Result<Bank, SeqIoError> {
    let mut in_record = false;
    for_each_line(reader, |line_no, line| {
        // A line is blank when nothing but its `\r\n` ending is there.
        let end = line.iter().rposition(|&b| b != b'\r').map_or(0, |i| i + 1);
        let line = &line[..end];
        match line.first() {
            None => Ok(()),
            Some(b) if in_record && !matches!(b, b'>' | b';') => {
                push_residues(builder.open_codes(), line, line_no)
            }
            Some(_) if !line.is_ascii() => Err(format_error(line_no, NON_ASCII)),
            Some(b'>') => {
                if in_record {
                    builder.close_record();
                }
                in_record = true;
                builder.open_record(header_id(&line[1..], line_no)?);
                Ok(())
            }
            // Old-style FASTA comment line: skip.
            Some(b';') => Ok(()),
            Some(_) => Err(format_error(line_no, "sequence data before any '>' header")),
        }
    })?;
    if in_record {
        builder.close_record();
    }
    Ok(builder.finish())
}

/// The identifier of a header line (`header` is the ASCII line after
/// `>`): its first white-space-delimited token.
fn header_id(header: &[u8], line_no: usize) -> Result<String, SeqIoError> {
    let id = header
        .split(|&b| is_header_space(b))
        .find(|token| !token.is_empty())
        .ok_or_else(|| format_error(line_no, "empty sequence identifier"))?;
    Ok(id.iter().map(|&b| char::from(b)).collect())
}

/// Appends the residues of one sequence line to `codes`.
fn push_residues(codes: &mut Vec<u8>, line: &[u8], line_no: usize) -> Result<(), SeqIoError> {
    // Translate the whole line blind; `seen` collects what was not a
    // residue. Almost every line is clean and is done here.
    let start = codes.len();
    let mut seen = 0u8;
    codes.extend(line.iter().map(|&b| {
        let entry = SEQ_LUT[usize::from(b)];
        seen |= entry;
        entry
    }));
    if seen & (SKIP | BAD) == 0 {
        return Ok(());
    }
    codes.truncate(start);
    if seen & BAD != 0 {
        return Err(format_error(line_no, NON_ASCII));
    }
    // White space inside the line: translate again, dropping it.
    let entries = line.iter().map(|&b| SEQ_LUT[usize::from(b)]);
    codes.extend(entries.filter(|&entry| entry != SKIP));
    Ok(())
}

/// Writes a [`Bank`] as FASTA with lines wrapped at `width` characters
/// (`width = 0` disables wrapping).
pub fn write_fasta<W: Write>(bank: &Bank, mut out: W, width: usize) -> std::io::Result<()> {
    for i in 0..bank.num_sequences() {
        let rec = bank.record(i);
        writeln!(out, ">{}", rec.name)?;
        let s = bank.sequence_string(i);
        if width == 0 {
            writeln!(out, "{s}")?;
        } else {
            for chunk in s.as_bytes().chunks(width) {
                out.write_all(chunk)?;
                out.write_all(b"\n")?;
            }
        }
    }
    Ok(())
}

/// Writes a bank to a FASTA file on disk (60-column wrapping).
pub fn write_fasta_file<P: AsRef<Path>>(bank: &Bank, path: P) -> Result<(), SeqIoError> {
    let file = std::fs::File::create(path)?;
    let mut w = std::io::BufWriter::new(file);
    write_fasta(bank, &mut w, 60)?;
    w.flush()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_two_records() {
        let bank = parse_fasta(">a desc\nACGT\n>b\nGG\nTT\n").unwrap();
        assert_eq!(bank.num_sequences(), 2);
        assert_eq!(bank.record(0).name, "a");
        assert_eq!(bank.sequence_string(0), "ACGT");
        assert_eq!(bank.sequence_string(1), "GGTT");
    }

    #[test]
    fn header_id_is_first_token() {
        let bank = parse_fasta(">gi|123|ref some description\nAC\n").unwrap();
        assert_eq!(bank.record(0).name, "gi|123|ref");
    }

    #[test]
    fn tolerates_blank_lines_and_crlf() {
        let bank = parse_fasta(">a\r\nAC\r\n\r\nGT\r\n").unwrap();
        assert_eq!(bank.sequence_string(0), "ACGT");
    }

    #[test]
    fn lowercase_and_ambiguous() {
        let bank = parse_fasta(">a\nacgtn\n").unwrap();
        assert_eq!(bank.sequence_string(0), "ACGTN");
    }

    #[test]
    fn skips_comment_lines() {
        let bank = parse_fasta(";comment\n>a\n;another\nAC\n").unwrap();
        assert_eq!(bank.sequence_string(0), "AC");
    }

    #[test]
    fn data_before_header_is_error() {
        let err = parse_fasta("ACGT\n>a\nAC\n").unwrap_err();
        match err {
            SeqIoError::Format { line, .. } => assert_eq!(line, 1),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn empty_identifier_is_error() {
        assert!(parse_fasta("> \nACGT\n").is_err());
    }

    #[test]
    fn empty_input_gives_empty_bank() {
        let bank = parse_fasta("").unwrap();
        assert_eq!(bank.num_sequences(), 0);
    }

    #[test]
    fn record_with_no_sequence_is_kept_empty() {
        let bank = parse_fasta(">a\n>b\nAC\n").unwrap();
        assert_eq!(bank.num_sequences(), 2);
        assert_eq!(bank.record(0).len, 0);
        assert_eq!(bank.sequence_string(1), "AC");
    }

    #[test]
    fn write_then_parse_roundtrip() {
        let bank = parse_fasta(">a\nACGTACGTACGT\n>b\nGGNTTA\n").unwrap();
        let mut out = Vec::new();
        write_fasta(&bank, &mut out, 5).unwrap();
        let reparsed = read_fasta(&out[..]).unwrap();
        assert_eq!(bank, reparsed);
    }

    #[test]
    fn write_unwrapped() {
        let bank = parse_fasta(">a\nACGT\n").unwrap();
        let mut out = Vec::new();
        write_fasta(&bank, &mut out, 0).unwrap();
        assert_eq!(String::from_utf8(out).unwrap(), ">a\nACGT\n");
    }

    #[test]
    fn non_ascii_is_a_format_error_naming_the_line() {
        // Invalid UTF-8 used to surface as a bare `Io(InvalidData)`.
        for (input, line) in [
            (&b">a\nAC\nG\xFFT\n"[..], 3),
            (b">a\xC3\xA9 desc\nAC\n", 1),
            (b">a desc \xFF\nAC\n", 1),
            (b">a\nAC\n;caf\xC3\xA9\nGT\n", 3),
            (b"\xFF\n>a\nAC\n", 1),
            (b">a\nAC\n\n>b\nG \xE2\x80\x83T", 5),
        ] {
            match read_fasta(input) {
                Err(SeqIoError::Format { line: l, message }) => {
                    assert_eq!(l, line, "{input:?}");
                    assert!(message.contains("non-ASCII"), "{message}");
                }
                other => panic!("{input:?}: unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn inline_whitespace_and_rna_are_tolerated() {
        let bank = parse_fasta(">a\tdesc\n AC GU\tac\x0Cgu \r\n\r\r\n>b\x0Bx\r\nN-*\n").unwrap();
        assert_eq!(bank.record(0).name, "a");
        assert_eq!(bank.sequence_string(0), "ACGTACGT");
        assert_eq!(bank.record(1).name, "b");
        assert_eq!(bank.sequence_string(1), "NNN");
    }

    #[test]
    fn failed_reader_is_an_io_error() {
        struct Broken;
        impl Read for Broken {
            fn read(&mut self, _: &mut [u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("boom"))
            }
        }
        assert!(matches!(read_fasta(Broken), Err(SeqIoError::Io(_))));
    }

    /// The parser this module had before the byte reader, kept verbatim
    /// as the reference of the differential properties below.
    fn read_line_parser<R: Read>(reader: R) -> Result<Bank, SeqIoError> {
        let mut builder = BankBuilder::new();
        let mut current_name: Option<String> = None;
        let mut current_codes: Vec<u8> = Vec::new();
        let mut line_no = 0usize;

        let mut buf = BufReader::new(reader);
        let mut line = String::new();
        loop {
            line.clear();
            let n = buf.read_line(&mut line)?;
            if n == 0 {
                break;
            }
            line_no += 1;
            let trimmed = line.trim_end_matches(['\n', '\r']);
            if trimmed.is_empty() {
                continue;
            }
            if let Some(header) = trimmed.strip_prefix('>') {
                if let Some(name) = current_name.take() {
                    builder.push_codes(&name, &current_codes);
                    current_codes.clear();
                }
                let id = header.split_whitespace().next().unwrap_or("");
                if id.is_empty() {
                    return Err(SeqIoError::Format {
                        line: line_no,
                        message: "empty sequence identifier".into(),
                    });
                }
                current_name = Some(id.to_string());
            } else if trimmed.starts_with(';') {
                // Old-style FASTA comment line: skip.
                continue;
            } else {
                if current_name.is_none() {
                    return Err(SeqIoError::Format {
                        line: line_no,
                        message: "sequence data before any '>' header".into(),
                    });
                }
                current_codes.extend(
                    trimmed
                        .bytes()
                        .filter(|b| !b.is_ascii_whitespace())
                        .map(nuc_from_char),
                );
            }
        }
        if let Some(name) = current_name.take() {
            builder.push_codes(&name, &current_codes);
        }
        Ok(builder.finish())
    }

    /// A reader that hands out at most `step` bytes per `read`, so lines
    /// straddle buffer fills at every possible offset.
    struct Dribble<'a> {
        bytes: &'a [u8],
        step: usize,
    }

    impl Read for Dribble<'_> {
        fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
            let n = self.step.min(out.len()).min(self.bytes.len());
            out[..n].copy_from_slice(&self.bytes[..n]);
            self.bytes = &self.bytes[n..];
            Ok(n)
        }
    }

    /// Bank or (line, message) of the format error; an I/O error cannot
    /// come out of an in-memory reader.
    fn outcome(r: Result<Bank, SeqIoError>) -> Result<Bank, (usize, String)> {
        r.map_err(|e| match e {
            SeqIoError::Format { line, message } => (line, message),
            other => panic!("unexpected error {other:?}"),
        })
    }

    /// Bytes FASTA parsing branches on, the structural ones repeated so
    /// that random draws form headers, comments and line ends often.
    const ASCII_DIET: &[u8] = b"ACGTNacgtnUuRrXx-*@.09 \t\r\r\n\n\n\n>>;\x0B\x0C\x00\x7F";
    /// The same plus bytes from the upper half: a valid two-byte UTF-8
    /// sequence in pieces, a lone continuation byte, 0xFF.
    const BYTE_DIET: &[u8] =
        b"ACGTNacgtnUuRrXx-*@.09 \t\r\r\n\n\n\n>>;\x0B\x0C\x00\x7F\xC3\xA9\x80\xFF";

    fn text_of(picks: &[usize], diet: &[u8]) -> Vec<u8> {
        picks.iter().map(|&i| diet[i % diet.len()]).collect()
    }

    #[test]
    fn line_classification_corner_cases_match_the_read_line_parser() {
        for text in [
            "\r\r\n>a\nAC\n",
            " \n>a\nAC\n",
            "\r>a\nAC\n",
            ">a\n\r>b\nAC\n",
            ">\x0Ba\x0Bb\nAC\n",
            "> \t\r\n",
            ">\n",
            ">a\nAC\n;x\n\nGT",
            ">a",
            ">a\r\r\nAC\r\r\n",
            ">a\nAC\r",
            ";only\n",
            "\n\n",
            "x",
            ">a\n>\n",
        ] {
            assert_eq!(
                outcome(read_fasta(text.as_bytes())),
                outcome(read_line_parser(text.as_bytes())),
                "{text:?}"
            );
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(2000))]

        /// On ASCII input the byte reader and the `read_line` parser
        /// agree on the bank or on the error and its line, whatever the
        /// buffer fills look like.
        #[test]
        fn byte_reader_matches_the_read_line_parser(
            picks in proptest::collection::vec(0usize..1000, 0..160),
            step in 1usize..9,
        ) {
            let text = text_of(&picks, ASCII_DIET);
            let expected = outcome(read_line_parser(&text[..]));
            proptest::prop_assert_eq!(&outcome(read_fasta(&text[..])), &expected);
            let dribble = Dribble { bytes: &text, step };
            proptest::prop_assert_eq!(&outcome(read_fasta(dribble)), &expected);
        }

        /// Arbitrary bytes never panic and never yield anything but a
        /// bank or a format error: the first line holding a byte
        /// `≥ 0x80` is refused, unless the ASCII lines before it already
        /// fail the way the `read_line` parser says.
        #[test]
        fn arbitrary_bytes_end_in_a_bank_or_a_format_error(
            picks in proptest::collection::vec(0usize..1000, 0..160),
            raw in proptest::collection::vec(0u8..=255, 0..40),
            step in 1usize..9,
        ) {
            for text in [text_of(&picks, BYTE_DIET), raw] {
                let got = outcome(read_fasta(Dribble { bytes: &text, step }));
                let Some(at) = text.iter().position(|b| !b.is_ascii()) else {
                    proptest::prop_assert_eq!(got, outcome(read_line_parser(&text[..])));
                    continue;
                };
                let line_start = text[..at].iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
                let ascii_lines = &text[..line_start];
                match outcome(read_line_parser(ascii_lines)) {
                    Err(early) => proptest::prop_assert_eq!(got, Err(early)),
                    Ok(_) => {
                        let line = ascii_lines.iter().filter(|&&b| b == b'\n').count() + 1;
                        proptest::prop_assert!(
                            matches!(&got, Err((l, m)) if *l == line && m.contains("non-ASCII")),
                            "non-ASCII byte on line {} gave {:?}", line, got
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("oris_seqio_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.fa");
        let bank = parse_fasta(">x\nACGTACGT\n").unwrap();
        write_fasta_file(&bank, &path).unwrap();
        let back = read_fasta_file(&path).unwrap();
        assert_eq!(bank, back);
    }
}
