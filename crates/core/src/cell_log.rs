//! Durable per-cell result log.
//!
//! The CLI's `hyperhammer-ckpt-v1` checkpoints and the campaign
//! server's `--spool` both persist finished campaign cells in one record
//! format: a line `index\t<ndjson line>`, appended with a single write
//! as each cell finishes and fsynced at a configurable cadence. A kill
//! can therefore only tear the *final* record, which loading drops (that
//! cell simply re-runs). Any other record that does not parse is
//! reported by its file line number, and the caller picks the policy:
//! the CLI refuses the checkpoint, the server logs it and re-runs the
//! cell.

use std::fs::{File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::Path;
use std::sync::Mutex;

/// An append-only cell log, safe to share between worker threads.
#[derive(Debug)]
pub struct CellLog {
    inner: Mutex<Appender>,
    sync_every: usize,
}

#[derive(Debug)]
struct Appender {
    file: File,
    unsynced: usize,
}

/// The records [`CellLog::parse`] recovered from a log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellRecords {
    /// Per grid index, the NDJSON line (newline included) of every
    /// recorded cell; a later record for the same index wins.
    pub lines: Vec<Option<String>>,
    /// 1-based file line numbers of records that do not parse or name a
    /// cell outside the grid, in file order.
    pub corrupt: Vec<usize>,
    /// Whether an unterminated final record was dropped.
    pub torn: bool,
}

impl CellLog {
    /// Opens `path` for appending, creating it if missing, and fsyncs
    /// after every `sync_every` records (at least 1). A torn final
    /// record is cut off first, so new records never run into it.
    ///
    /// # Errors
    ///
    /// Open, read or truncate failures.
    pub fn open(path: &Path, sync_every: usize) -> io::Result<Self> {
        let mut file = OpenOptions::new()
            .read(true)
            .append(true)
            .create(true)
            .open(path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        let complete = bytes.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
        if complete < bytes.len() {
            file.set_len(complete as u64)?;
            file.sync_data()?;
        }
        Ok(Self {
            inner: Mutex::new(Appender { file, unsynced: 0 }),
            sync_every: sync_every.max(1),
        })
    }

    /// Appends cell `index`'s record. `line` is one NDJSON line
    /// including its trailing newline.
    ///
    /// # Errors
    ///
    /// Write or fsync failures.
    ///
    /// # Panics
    ///
    /// Panics if `line` is not exactly one newline-terminated line: a
    /// missing or extra newline would merge or split records on disk.
    pub fn append(&self, index: usize, line: &str) -> io::Result<()> {
        assert!(
            line.ends_with('\n') && !line[..line.len() - 1].contains('\n'),
            "a cell record is exactly one newline-terminated line"
        );
        let mut inner = self.inner.lock().expect("cell log poisoned");
        // One write per record: a kill can tear at most this one.
        inner
            .file
            .write_all(format!("{index}\t{line}").as_bytes())?;
        inner.unsynced += 1;
        if inner.unsynced >= self.sync_every {
            inner.file.sync_data()?;
            inner.unsynced = 0;
        }
        Ok(())
    }

    /// Fsyncs every record appended so far, whatever the cadence.
    ///
    /// # Errors
    ///
    /// Fsync failures.
    pub fn sync(&self) -> io::Result<()> {
        let mut inner = self.inner.lock().expect("cell log poisoned");
        inner.unsynced = 0;
        inner.file.sync_data()
    }

    /// Parses the records of a grid of `cells` cells from `text`, the
    /// part of the log file after its first `header_lines` lines (which
    /// only offset the reported line numbers). Blank lines are skipped.
    pub fn parse(text: &str, header_lines: usize, cells: usize) -> CellRecords {
        let mut records = CellRecords {
            lines: vec![None; cells],
            corrupt: Vec::new(),
            torn: false,
        };
        for (pos, piece) in text.split_inclusive('\n').enumerate() {
            // Only the final piece can lack its newline: a torn append.
            let Some(record) = piece.strip_suffix('\n') else {
                records.torn = true;
                break;
            };
            if record.is_empty() {
                continue;
            }
            let parsed = record.split_once('\t').and_then(|(index, line)| {
                let index = index.parse::<usize>().ok().filter(|i| *i < cells)?;
                Some((index, line))
            });
            match parsed {
                Some((index, line)) => records.lines[index] = Some(format!("{line}\n")),
                None => records.corrupt.push(header_lines + pos + 1),
            }
        }
        records
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn torn_tail_is_dropped() {
        let records = CellLog::parse("0\t{\"a\": 1}\n2\t{\"c\": 3}\n1\t{\"b\"", 0, 3);
        assert!(records.torn);
        assert!(records.corrupt.is_empty());
        assert_eq!(
            records.lines,
            vec![
                Some("{\"a\": 1}\n".to_string()),
                None,
                Some("{\"c\": 3}\n".to_string())
            ]
        );
        // A tear inside the index is a torn tail too, not corruption.
        let records = CellLog::parse("0\t{}\n1", 0, 2);
        assert!(records.torn);
        assert!(records.corrupt.is_empty());
        assert_eq!(records.lines, vec![Some("{}\n".to_string()), None]);
    }

    #[test]
    fn corrupt_interior_records_report_their_line_numbers() {
        let text = "0\t{}\ngarbage\n\n1\t{}\nx\t{}\n";
        let records = CellLog::parse(text, 2, 2);
        assert!(!records.torn);
        // Lines 1-2 are the header, so records start at line 3.
        assert_eq!(records.corrupt, vec![4, 7]);
        assert_eq!(records.lines, vec![Some("{}\n".to_string()); 2]);
    }

    #[test]
    fn out_of_range_index_is_rejected() {
        let records = CellLog::parse("3\t{}\n0\t{}\n", 0, 3);
        assert_eq!(records.corrupt, vec![1]);
        assert_eq!(records.lines, vec![Some("{}\n".to_string()), None, None]);
    }

    #[test]
    fn empty_log_has_no_records() {
        let records = CellLog::parse("", 2, 4);
        assert_eq!(
            records,
            CellRecords {
                lines: vec![None; 4],
                corrupt: Vec::new(),
                torn: false,
            }
        );
    }

    #[test]
    fn appends_round_trip_and_reopening_cuts_a_torn_tail() {
        let dir = std::env::temp_dir().join(format!("hh-cell-log-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cells.ndjson");
        let _ = std::fs::remove_file(&path);

        let log = CellLog::open(&path, 2).unwrap();
        log.append(1, "{\"b\": 2}\n").unwrap();
        log.append(0, "{\"a\": 1}\n").unwrap();
        log.sync().unwrap();
        drop(log);
        // A kill mid-append leaves a partial record behind.
        let mut file = OpenOptions::new().append(true).open(&path).unwrap();
        file.write_all(b"2\t{\"c\"").unwrap();
        drop(file);

        let log = CellLog::open(&path, 1).unwrap();
        log.append(2, "{\"c\": 3}\n").unwrap();
        drop(log);
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text, "1\t{\"b\": 2}\n0\t{\"a\": 1}\n2\t{\"c\": 3}\n");
        let records = CellLog::parse(&text, 0, 3);
        assert!(!records.torn && records.corrupt.is_empty());
        assert!(records.lines.iter().all(Option::is_some));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
