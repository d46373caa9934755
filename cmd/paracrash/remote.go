package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"paracrash/internal/serve"
)

// remoteFlags are the flags a -remote run reads: the job request's fields
// and how the report is printed. Any other flag set beside -remote is
// refused, as the daemon would never see it.
var remoteFlags = strings.Fields("remote api-key shards json v fs program mode pfs-model lib-model k workers clients rows cols resize-rows resize-cols")

// doRequest issues one HTTP request against the daemon, attaching the
// tenant API key (if any) as an X-API-Key header.
func doRequest(method, url, apiKey string, body io.Reader) (*http.Response, error) {
	req, err := http.NewRequest(method, url, body)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if apiKey != "" {
		req.Header.Set("X-API-Key", apiKey)
	}
	return http.DefaultClient.Do(req)
}

// runRemote submits the request to a paracrashd instance, streams the
// job's progress events to stderr, and prints the finished job's report —
// the same output a local run would give. Returns the process exit code.
func runRemote(addr, apiKey string, req serve.JobRequest, jsonOut, verbose bool) int {
	base := "http://" + addr
	body, err := json.Marshal(req)
	if err != nil {
		fmt.Fprintln(os.Stderr, "paracrash:", err)
		return 2
	}
	resp, err := doRequest(http.MethodPost, base+"/v1/jobs", apiKey, bytes.NewReader(body))
	if err != nil {
		fmt.Fprintln(os.Stderr, "paracrash: submit:", err)
		return 2
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		fmt.Fprintf(os.Stderr, "paracrash: submit: %s: %s", resp.Status, msg)
		return 2
	}
	var job serve.Job
	if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
		fmt.Fprintln(os.Stderr, "paracrash: submit response:", err)
		return 2
	}
	fmt.Fprintf(os.Stderr, "paracrash: submitted job %s to %s\n", job.ID, addr)

	streamEvents(base, apiKey, job.ID)

	job, ok := waitTerminal(base, apiKey, job.ID)
	if !ok {
		return 2
	}
	switch job.State {
	case serve.JobDone:
	case serve.JobCanceled:
		fmt.Fprintf(os.Stderr, "paracrash: job %s canceled: %s\n", job.ID, job.Error)
		return 2
	default:
		fmt.Fprintf(os.Stderr, "paracrash: job %s failed: %s\n", job.ID, job.Error)
		return 2
	}

	rep := job.Report
	if rep == nil {
		fmt.Fprintf(os.Stderr, "paracrash: job %s finished without a report\n", job.ID)
		return 2
	}
	if jsonOut {
		out, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "paracrash:", err)
			return 2
		}
		fmt.Println(string(out))
	} else {
		fmt.Print(rep.Format())
		if verbose {
			for i, st := range rep.States {
				fmt.Printf("state %d [%s]: victims=%v\n  %s\n", i+1, st.Layer, st.Victims, st.Consequence)
			}
		}
	}
	if len(rep.Bugs) > 0 {
		return 1
	}
	return 0
}

// streamEvents relays the job's NDJSON progress stream to stderr until the
// daemon closes it, which it does once the job's terminal record is
// written. Stream errors are non-fatal: the job record is the source of
// truth, and waitTerminal reads it either way.
func streamEvents(base, apiKey, id string) {
	resp, err := doRequest(http.MethodGet, base+"/v1/jobs/"+id+"/events", apiKey, nil)
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
func waitTerminal(base, apiKey, id string) (serve.Job, bool) {
	for {
		resp, err := doRequest(http.MethodGet, base+"/v1/jobs/"+id, apiKey, nil)
		if err != nil {
			fmt.Fprintln(os.Stderr, "paracrash: poll:", err)
			return serve.Job{}, false
		}
		var job serve.Job
		err = json.NewDecoder(resp.Body).Decode(&job)
		resp.Body.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, "paracrash: poll:", err)
			return serve.Job{}, false
		}
		if job.State.Terminal() {
			return job, true
		}
		time.Sleep(250 * time.Millisecond)
	}
}
