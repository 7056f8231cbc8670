# oblivserve container image: multi-stage build producing a static
# binary on a minimal base. Build with `make docker` (or
# `docker build -t oblivserve .`), run with
#
#   docker run -p 8344:8344 oblivserve
#
# then load and query from the host:
#
#   oblivserve load  -addr http://localhost:8344 -name sales -rows 4096
#   oblivserve query -addr http://localhost:8344 -table sales -agg sum
#
# or run the same spec locally in the image, with no server:
#
#   docker run --rm oblivserve run -rows 4096 -agg sum -metered

FROM golang:1.24-alpine AS build
WORKDIR /src
COPY go.mod ./
COPY . .
RUN CGO_ENABLED=0 go build -trimpath -ldflags="-s -w" -o /out/oblivserve ./cmd/oblivserve

FROM alpine:3.20
RUN adduser -D -u 10001 oblivserve
USER oblivserve
COPY --from=build /out/oblivserve /usr/local/bin/oblivserve
EXPOSE 8344
ENTRYPOINT ["oblivserve"]
CMD ["serve", "-addr", ":8344"]
