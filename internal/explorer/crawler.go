package explorer

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"sync"
	"time"

	"github.com/phishinghook/phishinghook/internal/ethrpc"
)

// CrawlerOption configures a Crawler.
type CrawlerOption func(*Crawler)

// WithWorkers sets the label-fetch concurrency (default 8).
func WithWorkers(n int) CrawlerOption {
	return func(c *Crawler) {
		if n > 0 {
			c.workers = n
		}
	}
}

// WithCrawlerHTTP substitutes the HTTP client.
func WithCrawlerHTTP(h *http.Client) CrawlerOption {
	return func(c *Crawler) { c.http = h }
}

// WithMaxAttempts caps retries per request (default 5; 429s and transport
// errors are retried with exponential backoff).
func WithMaxAttempts(n int) CrawlerOption {
	return func(c *Crawler) {
		if n > 0 {
			c.maxAttempts = n
		}
	}
}

// Crawler scrapes the registry and label services the way the paper's data
// gathering scraped BigQuery + Etherscan. Safe for concurrent use.
type Crawler struct {
	base        string
	http        *http.Client
	workers     int
	maxAttempts int
}

// NewCrawler returns a crawler rooted at the service base URL.
func NewCrawler(base string, opts ...CrawlerOption) *Crawler {
	c := &Crawler{
		base:        base,
		http:        &http.Client{Timeout: 10 * time.Second, Transport: ethrpc.NewPooledTransport()},
		workers:     8,
		maxAttempts: 5,
	}
	for _, opt := range opts {
		opt(c)
	}
	return c
}

// ListContracts pages through the registry for the given block range and
// returns every address.
func (c *Crawler) ListContracts(ctx context.Context, fromBlock, toBlock uint64) ([]string, error) {
	var out []string
	cursor := 0
	for {
		u := fmt.Sprintf("%s/registry/contracts?from=%d&to=%d&cursor=%d",
			c.base, fromBlock, toBlock, cursor)
		var page RegistryPage
		if err := c.getJSON(ctx, u, &page); err != nil {
			return nil, fmt.Errorf("explorer: registry page at cursor %d: %w", cursor, err)
		}
		out = append(out, page.Addresses...)
		if page.NextCursor < 0 {
			return out, nil
		}
		if page.NextCursor <= cursor {
			return nil, fmt.Errorf("explorer: registry cursor did not advance (%d -> %d)", cursor, page.NextCursor)
		}
		cursor = page.NextCursor
	}
}

// Label fetches one address's label.
func (c *Crawler) Label(ctx context.Context, address string) (string, error) {
	u := c.base + "/api/label?address=" + url.QueryEscape(address)
	var resp LabelResponse
	if err := c.getJSON(ctx, u, &resp); err != nil {
		return "", err
	}
	return resp.Label, nil
}

// LabelResult pairs an address with its fetched label (or error).
type LabelResult struct {
	Address string
	Label   string
	Err     error
}

// LabelAll fetches labels for every address with a bounded worker pool and
// returns the results sorted by address (deterministic regardless of worker
// interleaving). Individual failures are recorded per address, not fatal.
func (c *Crawler) LabelAll(ctx context.Context, addresses []string) []LabelResult {
	jobs := make(chan string)
	results := make([]LabelResult, 0, len(addresses))
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < c.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for addr := range jobs {
				label, err := c.Label(ctx, addr)
				mu.Lock()
				results = append(results, LabelResult{Address: addr, Label: label, Err: err})
				mu.Unlock()
			}
		}()
	}
feed:
	for _, a := range addresses {
		select {
		case jobs <- a:
		case <-ctx.Done():
			break feed
		}
	}
	close(jobs)
	wg.Wait()
	sort.Slice(results, func(i, j int) bool { return results[i].Address < results[j].Address })
	return results
}

// getJSON performs one GET with retry on 429/5xx/transport errors.
func (c *Crawler) getJSON(ctx context.Context, u string, into any) error {
	backoff := 25 * time.Millisecond
	var lastErr error
	for attempt := 0; attempt < c.maxAttempts; attempt++ {
		if attempt > 0 {
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(backoff):
			}
			backoff *= 2
		}
		retryable, err := c.getOnce(ctx, u, into)
		if err == nil {
			return nil
		}
		lastErr = err
		if !retryable {
			return err
		}
	}
	return fmt.Errorf("explorer: giving up after %d attempts: %w", c.maxAttempts, lastErr)
}

func (c *Crawler) getOnce(ctx context.Context, u string, into any) (retryable bool, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return false, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return true, err
	}
	defer ethrpc.DrainClose(resp.Body)
	switch {
	case resp.StatusCode == http.StatusOK:
		if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
			return true, fmt.Errorf("decode body: %w", err)
		}
		return false, nil
	case resp.StatusCode == http.StatusTooManyRequests:
		if ra := resp.Header.Get("Retry-After"); ra != "" {
			if secs, perr := strconv.Atoi(ra); perr == nil && secs >= 0 {
				select {
				case <-ctx.Done():
					return false, ctx.Err()
				case <-time.After(time.Duration(secs) * time.Second / 10):
					// Honour a fraction of Retry-After: the simulated
					// services advertise whole seconds but refill
					// continuously.
				}
			}
		}
		return true, fmt.Errorf("rate limited (429)")
	case resp.StatusCode >= 500:
		return true, fmt.Errorf("server status %d", resp.StatusCode)
	default:
		return false, fmt.Errorf("status %d", resp.StatusCode)
	}
}
