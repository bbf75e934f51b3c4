package service

import (
	"os"
	"path/filepath"
	"sort"

	"predict/internal/core"
	"predict/internal/history"
)

// appendRecord durably appends one record to the history log (fsync
// before close) and runs the growth-triggered crash-safe compaction.
// Both the continuous model checkpoint and the /observe feedback path
// land here, so observations ride exactly the persistence machinery —
// and the compaction cap — the checkpoint log already has. Reports
// whether the append succeeded; failures are counted, not fatal.
func (s *Service) appendRecord(rec history.Record) bool {
	s.histMu.Lock()
	defer s.histMu.Unlock()
	if s.histPath == "" {
		return false
	}
	if err := history.AppendFileSync(s.histPath, rec); err != nil {
		s.checkpointFailures.Add(1)
		return false
	}
	s.ckptLog++
	if f := s.cfg.CheckpointGrowthFactor; f > 0 && s.ckptLog >= f*s.ckptBase {
		kept, err := history.CompactFile(s.histPath)
		if err != nil {
			s.checkpointFailures.Add(1)
			return true // the append itself succeeded
		}
		s.compactions.Add(1)
		s.resetCompactionBaseline(kept)
	}
	return true
}

// resetCompactionBaseline makes a log of n records the growth-factor
// trigger's new baseline (at least 1, so an empty log still has a
// growth bound). The caller holds histMu.
func (s *Service) resetCompactionBaseline(n int) {
	s.ckptLog = n
	s.ckptBase = max(n, 1)
}

// HistoryPath reports where checkpoints and saves currently land (the
// configured path unless RedirectHistory diverted it).
func (s *Service) HistoryPath() string {
	s.histMu.Lock()
	defer s.histMu.Unlock()
	return s.histPath
}

// RedirectHistory diverts future checkpoints and saves to path — the
// recovery move when the configured history file is unreadable and must
// be preserved for inspection rather than overwritten.
func (s *Service) RedirectHistory(path string) {
	s.histMu.Lock()
	defer s.histMu.Unlock()
	s.histPath = path
	s.resetCompactionBaseline(0)
}

// SaveHistory archives every cached model as a history "model" record,
// returning the number written. The snapshot replaces the file atomically
// (temp file + rename), so a crash or full disk mid-write cannot destroy
// the previous snapshot. Together with WarmFromHistory it gives the cache
// crash/restart durability without re-running sample pipelines.
func (s *Service) SaveHistory(path string) (int, error) {
	// histMu serializes the snapshot against concurrent checkpoint appends
	// and compactions: a checkpoint landing between snapshot and rename
	// would be silently erased by the rewrite.
	s.histMu.Lock()
	defer s.histMu.Unlock()
	entries := s.models.snapshot()
	// Oldest first so a warm start re-inserts in LRU order.
	sort.Slice(entries, func(i, j int) bool { return entries[i].added.Before(entries[j].added) })
	records := make([]history.Record, 0, len(entries))
	for _, e := range entries {
		records = append(records, e.val.Record(e.key, e.key))
	}
	// Observation windows follow the models (deterministic key order):
	// the snapshot replaces the whole file, so leaving them out would
	// erase the feedback the checkpoint log had accumulated.
	s.obsMu.RLock()
	keys := make([]string, 0, len(s.obs))
	for k := range s.obs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		for _, secs := range s.obs[k] {
			records = append(records, history.NewObservation(k, secs, 0))
		}
	}
	s.obsMu.RUnlock()
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return 0, err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if err := history.Write(tmp, records...); err != nil {
		tmp.Close()
		return 0, err
	}
	// Flush to stable storage before the rename makes the file visible:
	// rename-over-old with an unsynced payload can survive a crash as an
	// empty file on some filesystems, destroying the previous snapshot.
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return 0, err
	}
	if err := tmp.Close(); err != nil {
		return 0, err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return 0, err
	}
	if path == s.histPath {
		// The rewrite is the new compaction baseline.
		s.resetCompactionBaseline(len(records))
	}
	return len(records), nil
}

// WarmFromHistory loads "model" records from a history file and refits
// them into the cache (cheap regression refits; no sample runs). Missing
// files are not an error, and individually unreadable records are skipped
// rather than aborting the warm-up; the skipped count reports them so
// operators can decide whether overwriting the file loses data. A torn
// trailing record (crash mid-append) is recovered, counted in /stats as
// torn_records_recovered, and does not prevent the complete records from
// warming the cache.
func (s *Service) WarmFromHistory(path string) (warmed, skipped int, err error) {
	records, torn, err := history.LoadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, 0, nil
		}
		return 0, 0, err
	}
	if torn != nil {
		s.tornRecovered.Add(1)
	}
	for _, rec := range records {
		if rec.Observation != nil {
			// Feedback survives restarts: the log's observation records
			// (already capped per key by compaction) rebuild the in-memory
			// windows in log order.
			s.recordObservation(rec.Observation.ModelKey, rec.Observation.ActualSeconds)
			continue
		}
		if rec.Model == nil {
			continue
		}
		fitted, err := core.FittedFromRecord(rec)
		if err != nil {
			skipped++
			continue
		}
		s.models.put(rec.Model.Key, fitted)
		warmed++
	}
	s.histMu.Lock()
	if path == s.histPath {
		// The warm-started log is the compaction baseline: growth is
		// measured against what survived the restart, so a long-lived key
		// set does not trigger a compaction storm on the first few fits.
		s.resetCompactionBaseline(len(records))
	}
	s.histMu.Unlock()
	return warmed, skipped, nil
}
