package store

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// Compaction stages, in on-disk order. The compactHook test seam aborts at a
// stage boundary to reproduce the exact state a crash there would leave.
const (
	stageFlushed    = "flushed"     // queue drained onto the old generation
	stageTmpWritten = "tmp-written" // next generation fully written and fsynced
	stageRenamed    = "renamed"     // rename done, file handle not yet swapped
)

// errCompactClosed reports a compaction abandoned because the store closed.
var errCompactClosed = fmt.Errorf("store: compact: store closed")

// Compact rewrites the live, deduplicated record set to a fresh generation:
// knowledge.log.tmp is written with a fresh {version, params} header, fsynced,
// and atomically renamed over knowledge.log (after re-checking that the old
// generation's header still matches this store's version and params). It runs
// concurrently with serving — records flushed onto the old generation during
// the rewrite are carried over to the new one at the swap, and records still
// queued then are flushed onto the new generation afterwards — and a crash
// at any point leaves either generation loadable. It returns the log
// bytes reclaimed.
func (s *Store) Compact() (reclaimed int64, err error) {
	if s == nil {
		return 0, nil
	}
	s.cmu.Lock()
	defer s.cmu.Unlock()
	if s.closed.Load() {
		return 0, errCompactClosed
	}
	defer func() {
		if err != nil && err != errCompactClosed {
			s.smu.Lock()
			s.st.CompactErrors++
			s.smu.Unlock()
			s.logf("store: compact: %v", err)
		}
	}()

	// Drain the queue onto the old generation first, so a crash between
	// here and the rename loses nothing that was queued before the
	// compaction started. The snapshot below covers the queued records
	// either way (they are already in the in-memory maps), so a flush
	// error only degrades crash durability, not the new generation.
	// (s.flush directly, not Flush(): Close holds closeMu while waiting on
	// cmu, and the file handle is guaranteed open until that wait returns.)
	if ferr := s.flush(true); ferr != nil {
		s.logf("store: compact: pre-flush: %v (continuing; snapshot covers queued records)", ferr)
	}
	if s.hookAbort(stageFlushed) {
		return 0, nil
	}

	// Snapshot the live record set. A transient key set dedups the
	// snapshot itself: the in-memory lemma/core slices may hold duplicates
	// re-learned across lifetimes (append-time dedup is per-lifetime), and
	// the new generation is where they collapse.
	//
	// The old generation's length is noted first. A record is added to the
	// in-memory maps before it is queued, so a record the snapshot misses
	// was queued after this point; if a flush writes it to the old
	// generation before the swap below, it lies at or beyond snapAt, and
	// the swap carries those bytes over.
	s.qmu.Lock()
	snapAt := s.logBytes
	s.qmu.Unlock()
	buf := s.encodeLiveSet()

	// Re-check the old generation's header before replacing it: if the
	// file on disk is no longer a version/params match for this store
	// (swapped out from under us, damaged), renaming over it could destroy
	// a log some other configuration owns.
	path := filepath.Join(s.dir, logName)
	if herr := checkHeader(path, s.opts.Params); herr != nil {
		return 0, fmt.Errorf("old generation header re-check: %w", herr)
	}

	// Write the next generation and make it durable before the rename.
	tmp := filepath.Join(s.dir, tmpName)
	if werr := writeFileSync(tmp, buf); werr != nil {
		os.Remove(tmp)
		return 0, fmt.Errorf("write %s: %w", tmp, werr)
	}
	if s.hookAbort(stageTmpWritten) {
		return 0, nil
	}

	// Swap generations under qmu so no flush lands on the old file between
	// the rename and the handle swap.
	s.qmu.Lock()
	defer s.qmu.Unlock()
	if s.closed.Load() {
		os.Remove(tmp)
		return 0, errCompactClosed
	}
	oldBytes := s.logBytes
	tailBytes, terr := appendTail(tmp, path, snapAt, oldBytes)
	if terr != nil {
		os.Remove(tmp)
		return 0, fmt.Errorf("carry flushed records over to %s: %w", tmp, terr)
	}
	if rerr := os.Rename(tmp, path); rerr != nil {
		os.Remove(tmp)
		return 0, fmt.Errorf("rename: %w", rerr)
	}
	syncDir(s.dir)
	if s.hookAbort(stageRenamed) {
		// A crash here (rename durable, handle swap never happened) is
		// simulated by the caller reopening the directory; this process's
		// handle still points at the unlinked old generation, so keep it.
		return 0, nil
	}
	f, oerr := os.OpenFile(path, os.O_WRONLY, 0o644)
	if oerr != nil {
		// The new generation is in place but we cannot append to it.
		// Future flushes would land on the unlinked old file; treat as
		// fatal for this lifetime's writes and drop the handle swap.
		return 0, fmt.Errorf("reopen new generation: %w", oerr)
	}
	newBytes := int64(len(buf)) + tailBytes
	if _, serr := f.Seek(newBytes, 0); serr != nil {
		f.Close()
		return 0, fmt.Errorf("seek new generation: %w", serr)
	}
	s.file.Close()
	s.file = f
	s.logBytes = newBytes
	s.flushRetries = 0
	reclaimed = oldBytes - newBytes
	if reclaimed < 0 {
		reclaimed = 0
	}
	s.smu.Lock()
	s.st.Compactions++
	s.st.ReclaimedBytes += reclaimed
	s.st.LogBytes = newBytes
	// The new generation is exactly the live set; queued records flushed
	// onto it after this are counted by push/flush as usual.
	s.st.LiveBytes = newBytes
	s.smu.Unlock()
	s.logf("store: compacted %s: %d -> %d bytes (%d reclaimed)", path, oldBytes, newBytes, reclaimed)
	return reclaimed, nil
}

// maybeCompact runs a compaction when the log has crossed the configured
// size floor and garbage ratio. Called from the flusher goroutine.
func (s *Store) maybeCompact() {
	if s.opts.DisableAutoCompact {
		return
	}
	s.qmu.Lock()
	logBytes := s.logBytes
	s.qmu.Unlock()
	if logBytes < s.opts.CompactMinBytes {
		return
	}
	s.smu.Lock()
	live := s.st.LiveBytes
	s.smu.Unlock()
	garbage := logBytes - live
	if garbage <= 0 || float64(garbage)/float64(logBytes) < s.opts.CompactGarbageRatio {
		return
	}
	if _, err := s.Compact(); err != nil && err != errCompactClosed {
		s.logf("store: auto-compaction failed: %v", err)
	}
}

// encodeLiveSet renders the header plus every live record as log lines,
// deduplicated, in a deterministic order (lemmas and cores keep insertion
// order within their kind; keyed maps are sorted).
func (s *Store) encodeLiveSet() []byte {
	var buf bytes.Buffer
	hdr, _ := encode(record{T: "hdr", Version: version, Params: s.opts.Params})
	buf.Write(hdr)

	s.mu.RLock()
	defer s.mu.RUnlock()
	seen := map[string]struct{}{}

	skels := make([]string, 0, len(s.lemmas))
	for skel := range s.lemmas {
		skels = append(skels, skel)
	}
	sort.Strings(skels)
	for _, skel := range skels {
		for _, lem := range s.lemmas[skel] {
			k := lemmaKey(skel, lem)
			if _, dup := seen[k]; dup {
				continue
			}
			seen[k] = struct{}{}
			if line, err := encode(record{T: "lem", Skel: skel, Lins: lem.Lins, Vals: lem.Vals}); err == nil {
				buf.Write(line)
			}
		}
	}
	for _, c := range s.cores {
		k := coreKey(c)
		if _, dup := seen[k]; dup {
			continue
		}
		seen[k] = struct{}{}
		if line, err := encode(record{T: "core", Unknown: c.Unknown, Preds: c.Preds}); err == nil {
			buf.Write(line)
		}
	}
	for _, key := range sortedKeys(s.verdicts) {
		v := s.verdicts[key]
		if line, err := encode(record{T: "vrd", Skel: key, V: &v}); err == nil {
			buf.Write(line)
		}
	}
	for _, key := range sortedKeys(s.cons) {
		v := s.cons[key]
		if line, err := encode(record{T: "cons", Skel: key, V: &v}); err == nil {
			buf.Write(line)
		}
	}
	outKeys := make([]string, 0, len(s.outcomes))
	for k := range s.outcomes {
		outKeys = append(outKeys, k)
	}
	sort.Strings(outKeys)
	for _, k := range outKeys {
		pk, method, ok := cutNul(k)
		if !ok {
			continue
		}
		if line, err := encode(record{T: "out", Skel: pk, Method: method, Resp: s.outcomes[k]}); err == nil {
			buf.Write(line)
		}
	}
	return buf.Bytes()
}

func sortedKeys(m map[string]bool) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func cutNul(k string) (before, after string, ok bool) {
	for i := 0; i < len(k); i++ {
		if k[i] == 0 {
			return k[:i], k[i+1:], true
		}
	}
	return k, "", false
}

// checkHeader verifies that the first line of path is a version- and
// params-matching store header.
func checkHeader(path, params string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, 64<<10)
	line, err := r.ReadBytes('\n')
	if err != nil {
		return fmt.Errorf("read header line: %w", err)
	}
	return checkHeaderLine(bytes.TrimSuffix(line, []byte("\n")), params)
}

// appendTail copies bytes [from, to) of the old generation at path — whole
// records flushed there after the live-set snapshot — onto the end of the
// next generation at tmp, fsyncs it, and returns the bytes copied. Records
// that were in the snapshot too load as duplicates, which replay ignores.
func appendTail(tmp, path string, from, to int64) (int64, error) {
	if to <= from {
		return 0, nil
	}
	src, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	tail := make([]byte, to-from)
	_, err = src.ReadAt(tail, from)
	src.Close()
	if err != nil {
		return 0, err
	}
	dst, err := os.OpenFile(tmp, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return 0, err
	}
	if _, err := dst.Write(tail); err != nil {
		dst.Close()
		return 0, err
	}
	if err := dst.Sync(); err != nil {
		dst.Close()
		return 0, err
	}
	return int64(len(tail)), dst.Close()
}

// writeFileSync writes buf to path (truncating) and fsyncs it.
func writeFileSync(path string, buf []byte) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// syncDir fsyncs a directory so a completed rename survives power loss.
// Best-effort: not every platform supports fsync on directories.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	d.Sync()
	d.Close()
}

func (s *Store) hookAbort(stage string) bool {
	return s.compactHook != nil && s.compactHook(stage)
}
