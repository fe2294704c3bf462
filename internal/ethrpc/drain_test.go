package ethrpc_test

import (
	"context"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"github.com/phishinghook/phishinghook/internal/cluster"
	"github.com/phishinghook/phishinghook/internal/ethrpc"
	"github.com/phishinghook/phishinghook/internal/explorer"
)

// TestRefusedExchangesReuseConnections sends refused exchanges (429 with a
// body) from each HTTP client in the system that drains through
// ethrpc.DrainClose, and requires it to keep reusing its keep-alive
// connection: closing the unread body would make the transport dial anew
// for every refusal.
func TestRefusedExchangesReuseConnections(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		name string
		// client builds one client (one transport) and returns a single
		// exchange through it.
		client func(base string) func() error
	}{
		{"ethrpc client", func(base string) func() error {
			c := ethrpc.NewClient(base, ethrpc.WithRetries(1, time.Millisecond))
			return func() error { _, err := c.BlockNumber(ctx); return err }
		}},
		{"explorer crawler", func(base string) func() error {
			c := explorer.NewCrawler(base, explorer.WithMaxAttempts(1))
			return func() error { _, err := c.ListContracts(ctx, 0, 1); return err }
		}},
		{"cluster score client", func(base string) func() error {
			c := cluster.NewScoreClient(base, cluster.WithScoreRetries(1, time.Millisecond))
			return func() error { _, err := c.ScoreHexBatch(ctx, []string{"0x60"}); return err }
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				_, _ = io.Copy(io.Discard, r.Body)
				http.Error(w, "rate limited: slow down and retry later", http.StatusTooManyRequests)
			}))
			var dials atomic.Int64
			srv.Config.ConnState = func(_ net.Conn, s http.ConnState) {
				if s == http.StateNew {
					dials.Add(1)
				}
			}
			srv.Start()
			defer srv.Close()
			exchange := tc.client(srv.URL)
			const exchanges = 50
			for i := 0; i < exchanges; i++ {
				if err := exchange(); err == nil {
					t.Fatalf("exchange %d succeeded against a 429-only server", i)
				}
			}
			if d := dials.Load(); d > 2 {
				t.Fatalf("%d refused exchanges opened %d connections, want at most 2", exchanges, d)
			}
		})
	}
}
