CREATE TABLE kv (k INT, v STRING)
CREATE UNIQUE INDEX kv_k ON kv (k)
CREATE TABLE kv (k INT)
--revoke
CREATE TABLE tags (id INT, name STRING)
CREATE INDEX tags_name ON tags (name)
