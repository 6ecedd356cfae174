// Fixture: the shard scheduler shares runner.go's fan-out loop, so
// internal/sim/shardpool.go has no goroutine allowance of its own: a go
// statement here is a finding like in any internal/sim file but
// runner.go.
package sim

// RunShards fans one engine's shards out on its own goroutines.
func RunShards(pool int, fns []func()) {
	done := make(chan struct{})
	for _, fn := range fns {
		fn := fn
		go func() { // want confined-goroutines "go statement outside internal/sim/runner.go"
			fn()
			done <- struct{}{}
		}()
	}
	for range fns {
		<-done
	}
	_ = pool
}
