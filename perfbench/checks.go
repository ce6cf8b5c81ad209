package main

import (
	"context"
	"fmt"
	"time"

	logbase "repro"
)

// Correctness checks run after the timed phase and the failover. The
// in-loop ones (read values, scan order and limit, range aggregates) are
// in workload.go.

// checkWrites reads back every row a client wrote and checks it carries
// the client's last acknowledged version.
func (d *deployment) checkWrites(ctx context.Context, clients []*client, chk *checker, when string) error {
	for _, cl := range clients {
		for row, version := range cl.written {
			r, err := d.cc.Get(ctx, mainTable, group, rowKey(row))
			if err != nil {
				chk.fail("%s: read back row %d: %v", when, row, err)
				continue
			}
			got, err := d.vals.check(row, r.Value)
			if err != nil {
				chk.fail("%s: %v", when, err)
			} else if got != version {
				chk.fail("%s: row %d reads version %d, last acknowledged write was %d", when, row, got, version)
			}
		}
	}
	return ctx.Err()
}

// checkAccounts checks with a Query that the accounts still number
// d.spec.accounts and their balances still sum to what preload wrote.
func (d *deployment) checkAccounts(ctx context.Context, chk *checker, when string) error {
	if d.spec.accounts == 0 {
		return nil
	}
	res, err := d.cc.Query(ctx, accountTable, group, logbase.Query{Aggs: []logbase.Agg{
		{Kind: logbase.Count},
		{Kind: logbase.Sum, Extract: func(r logbase.Row) (float64, bool) { return leadingNum(r.Value) }},
	}})
	if err != nil {
		return fmt.Errorf("%s: accounts query: %w", when, err)
	}
	count, sum := int64(res.Value(0, logbase.Count)), int64(res.Value(1, logbase.Sum))
	if want := d.spec.accounts * initialBalance; count != d.spec.accounts || sum != want {
		chk.fail("%s: accounts COUNT %d SUM %d, want %d %d", when, count, sum, d.spec.accounts, want)
	}
	return nil
}

// failover kills one tablet server and times until every tablet it
// served answers a read again. It returns that time and the size of the
// dead server's log, which the survivors replayed.
func (d *deployment) failover(ctx context.Context, seed int64) (time.Duration, int64, error) {
	live := d.c.LiveServers()
	victim := live[uint64(seed)%uint64(len(live))]
	logBytes := d.c.Server(victim).Log().Size()
	assigned := d.c.Assignments()
	type probe struct {
		table string
		key   []byte
	}
	var probes []probe
	for _, t := range []struct {
		table string
		n     int64
		key   func(int64) []byte
	}{{mainTable, d.spec.rows, rowKey}, {accountTable, d.spec.accounts, accountKey}} {
		if t.n == 0 {
			continue
		}
		router, err := d.c.Router(t.table)
		if err != nil {
			return 0, 0, err
		}
		for _, tab := range router.Tablets() {
			if assigned[tab.ID] != victim {
				continue
			}
			for i := int64(0); i < t.n; i++ {
				if k := t.key(i); tab.Range.Contains(k) {
					probes = append(probes, probe{t.table, k})
					break
				}
			}
		}
	}
	t0 := time.Now()
	if err := d.c.KillServer(victim); err != nil {
		return 0, 0, fmt.Errorf("kill %s: %w", victim, err)
	}
	for _, p := range probes {
		if _, err := d.cc.Get(ctx, p.table, group, p.key); err != nil {
			return 0, 0, fmt.Errorf("read %s after failover of %s: %w", p.table, victim, err)
		}
	}
	return time.Since(t0), logBytes, nil
}
