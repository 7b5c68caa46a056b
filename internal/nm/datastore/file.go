package datastore

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// FileBackend stores the snapshot and journal in a state directory:
//
//	<dir>/snapshot.json  — {"seq": N, "data": <opaque JSON>}, replaced
//	                       atomically via fsynced write-to-temp + rename
//	<dir>/journal.jsonl  — one JSON Entry per line, O_APPEND only, each
//	                       line fsynced before the append is acknowledged
//	<dir>/lock           — advisory flock taken by LockDir (daemon and
//	                       store admin commands; not by this type)
//
// A torn final journal line (crash mid-append) is truncated away on
// open — it must not survive, or the next O_APPEND write would
// concatenate onto it and turn a tolerated crash artifact into
// mid-file corruption. Corruption anywhere else is an error.
type FileBackend struct {
	dir     string
	journal *os.File
}

// NewFileBackend opens (creating if needed) a state directory.
func NewFileBackend(dir string) (*FileBackend, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("datastore: create state dir: %w", err)
	}
	path := filepath.Join(dir, "journal.jsonl")
	if err := truncateTornTail(path); err != nil {
		return nil, fmt.Errorf("datastore: repair journal tail: %w", err)
	}
	j, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("datastore: open journal: %w", err)
	}
	return &FileBackend{dir: dir, journal: j}, nil
}

// truncateTornTail cuts a partial final line (crash mid-append) off the
// journal so the next append starts on a line boundary. Entry writes
// are single Write calls of JSON + '\n' with no embedded newlines, so a
// torn append is exactly "the file does not end in '\n'".
func truncateTornTail(path string) error {
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return err
	}
	size := st.Size()
	if size == 0 {
		return nil
	}
	// Find the offset just past the last '\n', scanning backwards.
	keep := int64(0)
	buf := make([]byte, 4096)
	for end := size; end > 0; {
		start := end - int64(len(buf))
		if start < 0 {
			start = 0
		}
		n := int(end - start)
		if _, err := f.ReadAt(buf[:n], start); err != nil {
			return err
		}
		if i := bytes.LastIndexByte(buf[:n], '\n'); i >= 0 {
			keep = start + int64(i) + 1
			break
		}
		end = start
	}
	if keep == size {
		return nil
	}
	if err := f.Truncate(keep); err != nil {
		return err
	}
	return f.Sync()
}

type fileSnapshot struct {
	Seq  uint64          `json:"seq"`
	Data json.RawMessage `json:"data"`
}

// LoadSnapshot implements Backend. An unreadable snapshot is moved
// aside (snapshot.json.corrupt) rather than returned as an error: the
// journal is retained in full, so replay from empty reproduces the
// intent set and the daemon still boots — it just re-observes.
func (f *FileBackend) LoadSnapshot() (uint64, []byte, error) {
	path := filepath.Join(f.dir, "snapshot.json")
	b, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return 0, nil, nil
	}
	if err != nil {
		return 0, nil, err
	}
	var s fileSnapshot
	if err := json.Unmarshal(b, &s); err != nil {
		if renameErr := os.Rename(path, path+".corrupt"); renameErr != nil {
			return 0, nil, fmt.Errorf("corrupt snapshot.json: %w", err)
		}
		return 0, nil, nil
	}
	return s.Seq, s.Data, nil
}

// WriteSnapshot implements Backend via write-to-temp + fsync + rename:
// without the fsync before the rename, power loss can make the rename
// durable while the data is not, leaving a corrupt snapshot.json. data
// is the caller's already-encoded JSON and is framed as it stands —
// re-marshalling it would validate and compact megabytes a second time.
func (f *FileBackend) WriteSnapshot(seq uint64, data []byte) error {
	if len(data) == 0 {
		data = []byte("null")
	}
	tmp := filepath.Join(f.dir, "snapshot.json.tmp")
	t, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(t)
	fmt.Fprintf(w, `{"seq":%d,"data":`, seq)
	w.Write(data)
	w.WriteByte('}')
	if err := w.Flush(); err != nil {
		t.Close()
		return err
	}
	if err := t.Sync(); err != nil {
		t.Close()
		return err
	}
	if err := t.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(f.dir, "snapshot.json")); err != nil {
		return err
	}
	// Make the rename itself durable. Best-effort: some platforms
	// cannot fsync a directory handle.
	if d, err := os.Open(f.dir); err == nil {
		_ = d.Sync()
		d.Close()
	}
	return nil
}

// Append implements Backend: one JSON line, synced before returning so
// an acknowledged mutation survives a crash.
func (f *FileBackend) Append(e Entry) error {
	b, err := json.Marshal(e)
	if err != nil {
		return err
	}
	if _, err := f.journal.Write(append(b, '\n')); err != nil {
		return err
	}
	return f.journal.Sync()
}

// Entries implements Backend. An unparseable final line is tolerated
// only when the file does not end in '\n': per the append contract
// that is exactly a torn write, while a newline-terminated line that
// fails to parse is corruption wherever it sits. (Accepting the latter
// would be worse than failing now: the next append would bury the bad
// line mid-file, and the boot after that would refuse the journal —
// with acknowledged writes after the corruption held hostage.)
func (f *FileBackend) Entries() ([]Entry, error) {
	r, err := os.Open(filepath.Join(f.dir, "journal.jsonl"))
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	defer r.Close()
	tornTailPossible, err := lacksFinalNewline(r)
	if err != nil {
		return nil, err
	}
	var out []Entry
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	line := 0
	for sc.Scan() {
		line++
		text := sc.Bytes()
		if len(text) == 0 {
			continue
		}
		var e Entry
		if err := json.Unmarshal(text, &e); err != nil {
			// A torn trailing line is a crash artifact, not corruption.
			if tornTailPossible && atEOF(sc) {
				break
			}
			return nil, fmt.Errorf("corrupt journal line %d: %w", line, err)
		}
		out = append(out, e)
	}
	if err := sc.Err(); err != nil && err != io.EOF {
		return nil, err
	}
	return out, nil
}

// lacksFinalNewline reports whether the (non-empty) file does not end
// with '\n', i.e. its last line may be a torn append. The read offset
// is restored to the start.
func lacksFinalNewline(f *os.File) (bool, error) {
	st, err := f.Stat()
	if err != nil {
		return false, err
	}
	if st.Size() == 0 {
		return false, nil
	}
	var last [1]byte
	if _, err := f.ReadAt(last[:], st.Size()-1); err != nil {
		return false, err
	}
	return last[0] != '\n', nil
}

// atEOF reports whether the scanner has no further lines.
func atEOF(sc *bufio.Scanner) bool { return !sc.Scan() }

// Dir returns the backing state directory.
func (f *FileBackend) Dir() string { return f.dir }

// Close implements Backend.
func (f *FileBackend) Close() error { return f.journal.Close() }
