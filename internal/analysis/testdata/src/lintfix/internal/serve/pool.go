// Package serve mirrors the experiment service, except that this pool
// runs its work inline: no go statement matches the internal/serve/pool.go
// goroutine-allowlist entry, so the entry is reported stale here (the
// real module's pool spawns its workers and keeps the sanction).
package serve // want determinism/staleallow

// Start runs the work on the calling goroutine, once per worker.
func Start(workers int, run func()) {
	for i := 0; i < workers; i++ {
		run()
	}
}
