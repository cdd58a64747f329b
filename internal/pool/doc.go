// Package pool is the claim-cursor worker pool behind both parallel
// layers of the simulation: the kernel's parallel execute phase hands a
// quantum's cores to it, and the fleet hands each round's due machines to
// it. A pool has a fixed worker count; the goroutine that calls Run is
// worker 0, so a one-worker pool runs every item inline with no goroutine
// round-trips. Items are claimed one at a time off a single atomic cursor,
// which balances uneven items without any per-worker assignment; the
// cursor walks the items in one stripe per worker, so workers running side
// by side hold items far apart.
//
// The pool shapes host scheduling only. Callers keep results independent
// of which worker ran which item: each item touches only its own state
// between Run's start and its barrier (the kernel's per-core slices, the
// fleet's independent machines), and every merge happens after Run
// returns, in item order.
package pool
