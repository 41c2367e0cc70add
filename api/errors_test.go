package api

import (
	"errors"
	"fmt"
	"testing"

	"prism/internal/exec"
)

func TestCodeSentinelRoundTrip(t *testing.T) {
	sentinels := map[string]error{
		CodeUnknownDatabase: ErrUnknownDatabase,
		CodeUnknownTable:    exec.ErrUnknownTable,
		CodeUnknownSession:  ErrUnknownSession,
	}
	for code, sentinel := range sentinels {
		if got := CodeForError(fmt.Errorf("wrapped: %w", sentinel)); got != code {
			t.Errorf("CodeForError(%v) = %q, want %q", sentinel, got, code)
		}
		if got := SentinelForCode(code); got != sentinel {
			t.Errorf("SentinelForCode(%q) = %v, want %v", code, got, sentinel)
		}
	}
	if got := CodeForError(errors.New("anything else")); got != CodeBadRequest {
		t.Errorf("unclassified error = %q, want %q", got, CodeBadRequest)
	}
	if SentinelForCode(CodeBadRequest) != nil || SentinelForCode("nonsense") != nil {
		t.Error("codes without sentinels must map to nil")
	}
}

func TestErrorUnwrapsToSentinel(t *testing.T) {
	err := error(&Error{Message: "unknown database \"atlantis\"", Code: CodeUnknownDatabase, HTTPStatus: 400})
	if !errors.Is(err, ErrUnknownDatabase) {
		t.Error("errors.Is(ErrUnknownDatabase) should hold")
	}
	if errors.Is(err, ErrUnknownSession) {
		t.Error("wrong sentinel matched")
	}
	var apiErr *Error
	if !errors.As(err, &apiErr) || apiErr.HTTPStatus != 400 {
		t.Errorf("errors.As lost the envelope: %+v", apiErr)
	}
	plain := error(&Error{Message: "boom", Code: CodeBadRequest})
	if errors.Is(plain, ErrUnknownDatabase) {
		t.Error("bad_request must not match a sentinel")
	}
	if plain.Error() != "boom (bad_request)" {
		t.Errorf("Error() = %q", plain.Error())
	}
}
