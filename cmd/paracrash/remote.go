package main

import (
	"bufio"
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"time"

	core "paracrash/internal/paracrash"
	"paracrash/internal/serve"
)

// do issues one HTTP request against the -remote daemon, with the tenant
// API key (-api-key, else $PARACRASH_API_KEY) as an X-API-Key header.
func (inv *invocation) do(method, path string, body io.Reader) (*http.Response, error) {
	req, err := http.NewRequest(method, "http://"+inv.remote+path, body)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if key := cmp.Or(inv.apiKey, os.Getenv("PARACRASH_API_KEY")); key != "" {
		req.Header.Set("X-API-Key", key)
	}
	return http.DefaultClient.Do(req)
}

// runRemote submits the request to the -remote paracrashd, streams the
// job's progress events to stderr, and returns the finished job's report,
// which prints as a local run's would.
func (inv *invocation) runRemote() (*core.Report, error) {
	body, _ := json.Marshal(inv.req) // a request is strings and numbers
	resp, err := inv.do(http.MethodPost, "/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("submit: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return nil, fmt.Errorf("submit: %s: %s", resp.Status, bytes.TrimSpace(msg))
	}
	var job serve.Job
	if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
		return nil, fmt.Errorf("submit response: %w", err)
	}
	fmt.Fprintf(os.Stderr, "paracrash: submitted job %s to %s\n", job.ID, inv.remote)

	inv.streamEvents(job.ID)

	job, err = inv.waitTerminal(job.ID)
	switch {
	case err != nil:
		return nil, fmt.Errorf("poll: %w", err)
	case job.State == serve.JobCanceled:
		return nil, fmt.Errorf("job %s canceled: %s", job.ID, job.Error)
	case job.State != serve.JobDone:
		return nil, fmt.Errorf("job %s failed: %s", job.ID, job.Error)
	case job.Report == nil:
		return nil, fmt.Errorf("job %s finished without a report", job.ID)
	}
	return job.Report, nil
}

// streamEvents relays the job's NDJSON progress stream to stderr until the
// daemon closes it, which it does once the job's terminal record is
// written. Stream errors are non-fatal: the job record is the source of
// truth, and waitTerminal reads it either way.
func (inv *invocation) streamEvents(id string) {
	resp, err := inv.do(http.MethodGet, "/v1/jobs/"+id+"/events", nil)
	if err != nil {
		fmt.Fprintln(os.Stderr, "paracrash: event stream:", err)
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		fmt.Fprintf(os.Stderr, "paracrash: %s\n", sc.Bytes())
	}
}

// waitTerminal fetches the job once it is terminal. After a stream read to
// its end the first fetch is the terminal one; the 250ms poll is left for a
// job with no stream to follow (one loaded by a restarted daemon answers
// 410 on /events) or whose stream broke.
func (inv *invocation) waitTerminal(id string) (serve.Job, error) {
	for {
		resp, err := inv.do(http.MethodGet, "/v1/jobs/"+id, nil)
		if err != nil {
			return serve.Job{}, err
		}
		var job serve.Job
		err = json.NewDecoder(resp.Body).Decode(&job)
		resp.Body.Close()
		if err != nil || job.State.Terminal() {
			return job, err
		}
		time.Sleep(250 * time.Millisecond)
	}
}
