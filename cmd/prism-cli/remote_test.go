package main

import (
	"bytes"
	"context"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"prism/internal/dataset"
	"prism/internal/server"
)

// remoteServer boots an in-memory prism-demo over a reduced Mondial for
// the -remote tests.
func remoteServer(t *testing.T) *httptest.Server {
	t.Helper()
	db, err := dataset.Mondial(dataset.MondialConfig{
		Seed: 9, Countries: 3, ProvincesPerCountry: 2, CitiesPerProvince: 2,
		Lakes: 20, Rivers: 10, Mountains: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := server.New()
	s.TimeLimit = 30 * time.Second
	s.RegisterDatabase("mondial", db)
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)
	return srv
}

func TestRemoteOneShotRound(t *testing.T) {
	srv := remoteServer(t)
	var out bytes.Buffer
	err := run(context.Background(), []string{
		"-remote", srv.URL,
		"-db", "mondial", "-columns", "3",
		"-sample", "California || Nevada | Lake Tahoe | ",
		"-metadata", " |  | DataType=='decimal' AND MinValue>='0'",
		"-results",
	}, strings.NewReader(""), &out)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	text := out.String()
	for _, want := range []string{"SELECT", "geo_lake", "candidates=", "validations="} {
		if !strings.Contains(text, want) {
			t.Errorf("remote output missing %q:\n%s", want, text)
		}
	}
}

func TestRemoteStreamRound(t *testing.T) {
	srv := remoteServer(t)
	var out bytes.Buffer
	err := run(context.Background(), []string{
		"-remote", srv.URL,
		"-db", "mondial", "-columns", "3",
		"-sample", "California || Nevada | Lake Tahoe | ",
		"-stream",
	}, strings.NewReader(""), &out)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	text := out.String()
	for _, want := range []string{"candidates:", "<- mapping 1", "SELECT"} {
		if !strings.Contains(text, want) {
			t.Errorf("remote stream output missing %q:\n%s", want, text)
		}
	}
}

func TestRemoteSessionLoop(t *testing.T) {
	srv := remoteServer(t)
	script := strings.Join([]string{
		"run",
		"set 1 3 [400, 600]",
		"run",
		"stats",
		"quit",
	}, "\n") + "\n"
	var out bytes.Buffer
	err := run(context.Background(), []string{
		"-remote", srv.URL,
		"-db", "mondial", "-columns", "3",
		"-sample", "California || Nevada | Lake Tahoe | ",
		"-metadata", " |  | DataType=='decimal' AND MinValue>='0'",
		"-session",
	}, strings.NewReader(script), &out)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	text := out.String()
	for _, want := range []string{
		"round 1:", "round 2:", "SELECT",
		"cache=",         // round 2's summary reports reuse
		"hits",           // stats output via the session info endpoint
		"server session", // stats come from the remote session
	} {
		if !strings.Contains(text, want) {
			t.Errorf("remote session output missing %q:\n%s", want, text)
		}
	}
}

func TestRemoteFlagErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), []string{
		"-remote", "http://localhost:1", "-explain", "ascii",
		"-sample", "x | ", "-columns", "2",
	}, strings.NewReader(""), &out); err == nil {
		t.Error("-remote with -explain should fail")
	}
	if err := run(context.Background(), []string{
		"-remote", "ftp://nope",
		"-sample", "x | ", "-columns", "2",
	}, strings.NewReader(""), &out); err == nil {
		t.Error("bad remote URL should fail")
	}
}
